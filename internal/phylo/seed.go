package phylo

// Seed derivation for multi-replicate analyses.
//
// An analysis spawns many independent randomized computations — the starting
// tree of every inference, the starting tree of every bootstrap search, and
// the column resample of every bootstrap replicate. Early versions drew the
// bootstrap weights from a single rand.Rand shared across replicates, which
// made replicate b depend on how many values replicates 0..b-1 had consumed;
// any change to one replicate (or to the order work is generated in) shifted
// every later one. Deriving each stream's seed by hashing (analysis seed,
// stream, index) makes every replicate a pure function of its own identity,
// so the serial reference and any parallel interleaving agree bit for bit.

// Seed streams: each independent consumer of randomness within one analysis
// hashes its own stream tag so, e.g., inference 3 and bootstrap 3 never share
// a generator state.
const (
	// SeedStreamInference seeds the starting tree of inference i.
	SeedStreamInference = 1
	// SeedStreamBootstrapSearch seeds the starting tree of bootstrap b.
	SeedStreamBootstrapSearch = 2
	// SeedStreamBootstrapWeights seeds the column resample of bootstrap b.
	SeedStreamBootstrapWeights = 3
)

// SplitMix64 is the finalizer of the splitmix64 generator (Steele, Lea &
// Flood 2014): a bijective avalanche mix that turns correlated inputs (small
// consecutive integers) into statistically independent outputs.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed hashes (seed, stream, index) into an independent sub-seed. It is
// the only way analyses mint per-replicate seeds; the result is always
// non-negative so it can feed rand.NewSource directly.
func DeriveSeed(seed int64, stream, index int) int64 {
	h := SplitMix64(uint64(seed) + SplitMix64(uint64(stream)<<32|uint64(uint32(index))))
	return int64(h &^ (1 << 63))
}
