package phylo

// Tests for the search checkpoint codec and the resume contract: a search
// resumed from any sweep-boundary checkpoint must finish byte-identical —
// tree topology, branch-length bits, log-likelihood bits, move counters — to
// the uninterrupted run. The codec tests pin the frame (magic, version, CRC)
// and reject corruption; the allocation guard pins the acceptance criterion
// that emission on the search hot path allocates nothing in steady state.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkpointAlignment simulates the shared small alignment the checkpoint
// tests search over.
func checkpointAlignment(t *testing.T) *PatternAlignment {
	t.Helper()
	_, aln, err := Simulate(SimulateOptions{Taxa: 10, Length: 400, Seed: 77, MeanBranchLength: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newCheckpointEngine builds a fresh engine over data for one test config.
func newCheckpointEngine(t *testing.T, data *PatternAlignment, gtr bool, gamma bool) *Engine {
	t.Helper()
	var model Model = NewJC69()
	if gtr {
		m, err := NewGTR([6]float64{1.3, 3.2, 0.9, 1.1, 4.1, 1.0}, Frequencies{0.31, 0.19, 0.24, 0.26})
		if err != nil {
			t.Fatal(err)
		}
		model = m
	}
	rates := SingleRate()
	if gamma {
		var err error
		rates, err = DiscreteGamma(0.6, 4)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(data, model, rates)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// BuildModel reconstructs the substitution model the checkpoint was taken
// under; only the tests need it, because production resumes on an engine
// built from the job's own spec and gates it with Matches. The stored exchange rates and frequencies are installed verbatim —
// NOT re-normalized, which could shift frequency bits — and the
// eigendecomposition recomputed; it is a deterministic function of them, so
// transition matrices agree bit for bit with the original model's.
func (c *Checkpoint) BuildModel() (Model, error) {
	if !c.ModelGTR {
		if c.ModelName != (JC69{}).Name() {
			return nil, fmt.Errorf("phylo: checkpoint model %q is not resumable", c.ModelName)
		}
		return NewJC69(), nil
	}
	for i, r := range c.GTRRates {
		if !(r > 0) {
			return nil, fmt.Errorf("phylo: checkpoint GTR exchange rate %d is %v", i, r)
		}
	}
	for i, f := range c.GTRFreqs {
		if !(f > 0) {
			return nil, fmt.Errorf("phylo: checkpoint GTR frequency %d is %v", i, f)
		}
	}
	g := &GTR{name: c.ModelName, freqs: c.GTRFreqs, rates: c.GTRRates}
	if err := g.decompose(); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildRates reconstructs the rate categories bit-exactly.
func (c *Checkpoint) BuildRates() RateCategories {
	return RateCategories{Rates: append([]float64(nil), c.Rates...)}
}

// topologiesEqual compares the parent/child structure of two snapshots and
// leaves the branch lengths out.
func topologiesEqual(a, b *TreeSnapshot) bool {
	if len(a.parent) != len(b.parent) || a.root != b.root {
		return false
	}
	for i := range a.parent {
		if a.parent[i] != b.parent[i] {
			return false
		}
	}
	for i := range a.child {
		if a.child[i] != b.child[i] {
			return false
		}
	}
	return true
}

// snapshotsEqual compares two topology snapshots bit-exactly.
func snapshotsEqual(a, b *TreeSnapshot) bool {
	if !topologiesEqual(a, b) {
		return false
	}
	for i := range a.length {
		if math.Float64bits(a.length[i]) != math.Float64bits(b.length[i]) {
			return false
		}
	}
	return true
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	data := checkpointAlignment(t)
	for _, cfg := range []struct {
		name       string
		gtr, gamma bool
	}{
		// The suffixes keep the test names stable: they name the site-repeat
		// setting each case ran under before the engine lost it.
		{"jc69_single_repeats", false, false},
		{"jc69_gamma_norepeats", false, true},
		{"gtr_single_norepeats", true, false},
		{"gtr_gamma_repeats", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			eng := newCheckpointEngine(t, data, cfg.gtr, cfg.gamma)
			var encoded [][]byte
			opts := SearchOptions{
				SmoothingRounds: 2, MaxRounds: 4, Epsilon: 0.01, Seed: 5,
				Checkpoint: func(c *Checkpoint) { encoded = append(encoded, c.AppendBinary(nil)) },
			}
			if _, err := eng.Search(opts); err != nil {
				t.Fatal(err)
			}
			if len(encoded) < 2 {
				t.Fatalf("search emitted %d checkpoints, want the round-0 boundary plus at least one sweep", len(encoded))
			}
			for i, enc := range encoded {
				c, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i, err)
				}
				// Canonical codec: decode then re-encode reproduces the bytes.
				if got := c.AppendBinary(nil); string(got) != string(enc) {
					t.Fatalf("checkpoint %d did not round-trip byte-identically", i)
				}
				if err := c.Matches(eng); err != nil {
					t.Fatalf("checkpoint %d does not match its own engine: %v", i, err)
				}
				if c.ModelGTR != cfg.gtr {
					t.Fatalf("checkpoint %d lost its model family", i)
				}
				tree, err := c.BuildTree()
				if err != nil {
					t.Fatalf("checkpoint %d tree: %v", i, err)
				}
				var snap TreeSnapshot
				tree.CaptureTopologyInto(&snap)
				if !snapshotsEqual(&snap, &c.Topo) {
					t.Fatalf("checkpoint %d: rebuilt tree does not reproduce the snapshot", i)
				}
				model, err := c.BuildModel()
				if err != nil {
					t.Fatalf("checkpoint %d model: %v", i, err)
				}
				if g, ok := model.(*GTR); ok {
					if g.ExchangeRates() != c.GTRRates || g.Frequencies() != c.GTRFreqs {
						t.Fatalf("checkpoint %d: BuildModel perturbed GTR parameter bits", i)
					}
				}
			}
		})
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	data := checkpointAlignment(t)
	eng := newCheckpointEngine(t, data, false, false)
	var enc []byte
	opts := SearchOptions{
		SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01, Seed: 5,
		Checkpoint: func(c *Checkpoint) { enc = c.AppendBinary(enc[:0]) },
	}
	if _, err := eng.Search(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(enc); err != nil {
		t.Fatalf("pristine record must decode: %v", err)
	}
	// A flipped byte anywhere in the record must be caught (magic mismatch or
	// CRC failure — never a silently wrong checkpoint).
	for _, pos := range []int{0, 9, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", pos)
		}
	}
	// Truncation at any point is rejected.
	for _, n := range []int{0, 4, 8, len(enc) - 5, len(enc) - 1} {
		if _, err := DecodeCheckpoint(enc[:n]); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
	// An unknown version is rejected even with a valid CRC: patch the version
	// varint (first body byte) and recompute the trailing checksum.
	bad := append([]byte(nil), enc...)
	bad[8] = CheckpointVersion + 1
	refreshFrameCRC(bad)
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Errorf("future codec version went undetected")
	}
}

// refreshFrameCRC rewrites the trailing crc32c over the body of a framed
// record (after the 8-byte magic, before the 4-byte checksum).
func refreshFrameCRC(rec []byte) {
	body := rec[8 : len(rec)-4]
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.Checksum(body, crcTable))
}

func TestTreeBinaryRoundTrip(t *testing.T) {
	names := []string{"ta", "tb", "tc", "td", "te", "tf", "tg"}
	rng := rand.New(rand.NewSource(11))
	tree, err := NewRandomTree(names, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Irrational branch lengths: any formatting round-trip would lose bits.
	for _, n := range tree.Nodes {
		if n.Parent != nil {
			n.Length = 0.01 + rng.Float64()/3
		}
	}
	enc := AppendTreeBinary(nil, tree)
	back, err := DecodeTreeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got TreeSnapshot
	tree.CaptureTopologyInto(&want)
	back.CaptureTopologyInto(&got)
	if !snapshotsEqual(&want, &got) {
		t.Fatal("decoded tree is not bit-identical to the encoded one")
	}
	for i, name := range names {
		if back.Taxa[i] != name {
			t.Fatalf("taxon %d decoded as %q, want %q", i, back.Taxa[i], name)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x10
	if _, err := DecodeTreeBinary(bad); err == nil {
		t.Error("corrupt tree record went undetected")
	}
	if _, err := DecodeTreeBinary(enc[:len(enc)-2]); err == nil {
		t.Error("truncated tree record went undetected")
	}
}

// TestSearchResumeByteIdentical is the resume property test: run a search
// uninterrupted, capturing a checkpoint at every sweep boundary; then resume
// a fresh engine — with the model and rates rebuilt from the checkpoint, not
// shared — from EACH boundary and require the final tree (topology and
// branch-length bits), log-likelihood bits and move counters to be identical
// to the uninterrupted run.
//
// The legacy case adds one more checkpoint to resume from: a layout-v1 record
// written before speculative scoring was removed, by this very search run at
// speculation width 4 (round 1 of 3; 29 replica-scored, 28 wasted). Its two
// counter slots are now reserved, so it must decode and re-encode to its own
// bytes with zeros there. Its branch-length bits were written by the Newton
// arithmetic of its day (a P/dP/d²P mat-vec per iterate); the sum-table
// iteration rounds differently in the last place, so the file no longer
// equals this run's round-1 boundary and a resume from it cannot be held to
// bit-identity with a run it was not cut from. It is held to what a stored
// checkpoint owes a newer binary: the same topology and move counters and a
// log-likelihood within 1e-9 relative. Boundaries this binary writes stay
// bit-exact.
func TestSearchResumeByteIdentical(t *testing.T) {
	data := checkpointAlignment(t)
	for _, cfg := range []struct {
		name       string
		gtr, gamma bool
		legacy     string
	}{
		{"jc69_single_repeats", false, false, ""}, // suffixes as in TestCheckpointCodecRoundTrip
		{"gtr_gamma_norepeats", true, true, ""},
		{"jc69_single_speculative", false, false, "testdata/checkpoint_v1_spec4_round1.hex"},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			eng := newCheckpointEngine(t, data, cfg.gtr, cfg.gamma)
			var boundaries [][]byte
			opts := SearchOptions{
				SmoothingRounds: 3, MaxRounds: 8, Epsilon: 0.01, Seed: 9,
				Checkpoint: func(c *Checkpoint) { boundaries = append(boundaries, c.AppendBinary(nil)) },
			}
			ref, err := eng.Search(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(boundaries) < 2 {
				t.Fatalf("only %d sweep boundaries; the fixture search is too short to test resume", len(boundaries))
			}
			var refSnap TreeSnapshot
			ref.Tree.CaptureTopologyInto(&refSnap)

			// resume finishes the search on a fresh engine from one encoded
			// checkpoint and checks what every resume owes: the move counters.
			resume := func(label string, enc []byte) (*SearchResult, *TreeSnapshot) {
				c, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				model, err := c.BuildModel()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fresh, err := NewEngine(data, model, c.BuildRates())
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ropts := opts
				ropts.Checkpoint = nil
				ropts.Resume = c
				res, err := fresh.Search(ropts)
				if err != nil {
					t.Fatalf("resume from %s: %v", label, err)
				}
				if res.Rounds != ref.Rounds || res.NNIEvaluated != ref.NNIEvaluated || res.NNIAccepted != ref.NNIAccepted {
					t.Errorf("%s: counters (%d,%d,%d) != uninterrupted (%d,%d,%d)", label,
						res.Rounds, res.NNIEvaluated, res.NNIAccepted,
						ref.Rounds, ref.NNIEvaluated, ref.NNIAccepted)
				}
				var snap TreeSnapshot
				res.Tree.CaptureTopologyInto(&snap)
				return res, &snap
			}

			for i, enc := range boundaries {
				label := fmt.Sprintf("boundary %d", i)
				res, snap := resume(label, enc)
				if math.Float64bits(res.LogLikelihood) != math.Float64bits(ref.LogLikelihood) {
					t.Errorf("%s: logL %v != uninterrupted %v", label, res.LogLikelihood, ref.LogLikelihood)
				}
				if math.Float64bits(res.StartLogLik) != math.Float64bits(ref.StartLogLik) {
					t.Errorf("%s: StartLogLik differs", label)
				}
				if !snapshotsEqual(snap, &refSnap) {
					t.Errorf("%s: final tree is not bit-identical to the uninterrupted run", label)
				}
			}
			if cfg.legacy != "" {
				res, snap := resume("legacy checkpoint", legacyCheckpoint(t, cfg.legacy, len(boundaries)-1))
				if math.Abs(res.LogLikelihood-ref.LogLikelihood) > 1e-9*math.Abs(ref.LogLikelihood) {
					t.Errorf("legacy checkpoint: logL %v, uninterrupted %v", res.LogLikelihood, ref.LogLikelihood)
				}
				if math.Abs(res.StartLogLik-ref.StartLogLik) > 1e-9*math.Abs(ref.StartLogLik) {
					t.Errorf("legacy checkpoint: StartLogLik %v, uninterrupted %v", res.StartLogLik, ref.StartLogLik)
				}
				if !topologiesEqual(snap, &refSnap) {
					t.Error("legacy checkpoint: final topology differs from the uninterrupted run")
				}
			}
		})
	}
}

// legacyCheckpoint loads a hex-encoded checkpoint written by an earlier binary
// and checks the reserved-slot contract: the stored record sits mid-search
// (before the given last round) with nonzero counters in the two reserved
// slots, and decoding then re-encoding it yields its own bytes with zeros
// there and a valid CRC.
func legacyCheckpoint(t *testing.T, path string, lastRound int) []byte {
	t.Helper()
	enc := readHexFile(t, path)
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("legacy checkpoint: %v", err)
	}
	if c.Round <= 0 || c.Round >= lastRound {
		t.Fatalf("legacy checkpoint is at round %d of %d, not mid-search", c.Round, lastRound)
	}
	start, end, scored, wasted := reservedSlots(enc)
	if scored == 0 || wasted == 0 {
		t.Fatalf("legacy checkpoint has reserved slots (%d,%d), want nonzero speculation counters", scored, wasted)
	}
	want := append(append(append([]byte(nil), enc[:start]...), 0, 0), enc[end:]...)
	refreshFrameCRC(want)
	if again := c.AppendBinary(nil); !bytes.Equal(again, want) {
		t.Error("re-encoded legacy checkpoint is not its own bytes with the reserved slots zeroed")
	}
	return enc
}

// reservedSlots reads the two reserved body varints of an encoded checkpoint
// (they follow version, round, NNIEvaluated and NNIAccepted) and reports the
// byte range [start, end) they occupy.
func reservedSlots(enc []byte) (start, end int, a, b uint64) {
	pos := len(checkpointMagic)
	var v [6]uint64
	for i := range v {
		if i == 4 {
			start = pos
		}
		n := 0
		v[i], n = binary.Uvarint(enc[pos:])
		pos += n
	}
	return start, pos, v[4], v[5]
}

// TestSearchResumeRejectsMismatch pins the compatibility gate: resuming under
// a different alignment, model or rate configuration must fail loudly instead
// of silently producing a non-reproducible search.
func TestSearchResumeRejectsMismatch(t *testing.T) {
	data := checkpointAlignment(t)
	eng := newCheckpointEngine(t, data, false, false)
	var enc []byte
	opts := SearchOptions{
		SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01, Seed: 5,
		Checkpoint: func(c *Checkpoint) { enc = c.AppendBinary(enc[:0]) },
	}
	if _, err := eng.Search(opts); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Resume = c

	gtrEng := newCheckpointEngine(t, data, true, false)
	if _, err := gtrEng.Search(ropts); err == nil {
		t.Error("resume under a different model must fail")
	}
	gammaEng := newCheckpointEngine(t, data, false, true)
	if _, err := gammaEng.Search(ropts); err == nil {
		t.Error("resume under different rate categories must fail")
	}
}

// TestCheckpointEmissionAllocationFree pins the acceptance criterion: filling
// the engine-owned checkpoint and encoding it into a reused buffer allocates
// nothing in steady state, so per-sweep emission cannot erode the zero-alloc
// search.
func TestCheckpointEmissionAllocationFree(t *testing.T) {
	data := checkpointAlignment(t)
	eng := newCheckpointEngine(t, data, false, false)
	var buf []byte
	opts := SearchOptions{
		SmoothingRounds: 2, MaxRounds: 3, Epsilon: 0.01, Seed: 5,
		Checkpoint: func(c *Checkpoint) { buf = c.AppendBinary(buf[:0]) },
	}
	res, err := eng.Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Tree
	// The search above warmed the engine-owned checkpoint (slice capacities,
	// snapshot arrays) and the encode buffer; from here on fill+encode must
	// be allocation-free.
	avg := testing.AllocsPerRun(100, func() {
		eng.fillCheckpoint(&eng.ckpt, tree, &opts, res, res.LogLikelihood, true, false)
		buf = eng.ckpt.AppendBinary(buf[:0])
	})
	if avg != 0 {
		t.Errorf("checkpoint fill+encode allocates %v per emission in steady state, want 0", avg)
	}
}

// frame wraps body in magic and body's crc32c, as AppendBinary and
// AppendTreeBinary do: a record every check before the decoder's passes.
func frame(magic [8]byte, body []byte) []byte {
	rec := append(magic[:len(magic):len(magic)], body...)
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, crcTable))
}

// decodeAlloc runs decode and returns the bytes it allocated.
func decodeAlloc(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersRefuseCountsPastTheRecord holds both decoders to sizing nothing
// by a count the record could not hold. A tree record of version and taxon
// count 2^22 (17 bytes), one of three one-letter taxa and snapshot node count
// 2^22 (24 bytes), and checkpoints that carry the same counts, each with a
// valid CRC, are refused having allocated less than 1 MB. Sized by their
// counts, the tree record's arrays took 67 and 84 MB.
func TestDecodersRefuseCountsPastTheRecord(t *testing.T) {
	huge := binary.AppendUvarint(nil, maxCheckpointNodes)
	taxa := append([]byte{1, 'a', 1, 'b', 1, 'c'}, huge...) // three taxa, then the node count
	tree := append([]byte{CheckpointVersion}, huge...)
	treeNodes := append([]byte{CheckpointVersion, 3}, taxa...)
	// A checkpoint body up to its taxon count: without taxa and with an empty
	// snapshot, the body ends in three zero bytes (taxon count, node count,
	// root).
	enc := (&Checkpoint{ModelName: "JC69", Rates: []float64{1}}).AppendBinary(nil)
	head := enc[len(checkpointMagic) : len(enc)-4-3 : len(enc)-4-3]
	ckpt := append(head, huge...)
	ckptNodes := append(append(head, 3), taxa...)
	decodeTree := func(b []byte) error { _, err := DecodeTreeBinary(b); return err }
	decodeCkpt := func(b []byte) error { _, err := DecodeCheckpoint(b); return err }
	for _, c := range []struct {
		name   string
		rec    []byte
		decode func([]byte) error
	}{
		{"tree taxa", frame(treeMagic, tree), decodeTree},
		{"tree snapshot nodes", frame(treeMagic, treeNodes), decodeTree},
		{"checkpoint taxa", frame(checkpointMagic, ckpt), decodeCkpt},
		{"checkpoint snapshot nodes", frame(checkpointMagic, ckptNodes), decodeCkpt},
	} {
		var err error
		alloc := decodeAlloc(func() { err = c.decode(c.rec) })
		if err == nil {
			t.Errorf("%s: a %d-byte record decoded", c.name, len(c.rec))
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte record allocated %d bytes, want under 1 MB", c.name, len(c.rec), alloc)
		}
	}
	if n := len(frame(treeMagic, tree)); n != 17 {
		t.Errorf("the taxon-count tree record is %d bytes, want 17", n)
	}
	if n := len(frame(treeMagic, treeNodes)); n != 24 {
		t.Errorf("the node-count tree record is %d bytes, want 24", n)
	}
}

// Bounds on what decoding a record of n bytes may allocate, success or not:
// decodeAllocBase plus decodeAllocPerByte·n. A count is refused past what the
// rest of the record holds, so every array is at most a small multiple of the
// record: a taxon name is at least one byte and a 16-byte string header, a
// snapshot node at least 11 bytes and 20 bytes of arrays plus, for a decoded
// tree, its Node.
const (
	decodeAllocBase    = 64 << 10
	decodeAllocPerByte = 64
)

// fuzzSeedBodies returns the bodies (magic and CRC cut off) of the committed
// records: two checkpoints and a tree record, which ends the final fixture
// ahead of its 8 logL bytes.
func fuzzSeedBodies(f *testing.F) [][]byte {
	body := func(rec []byte) []byte { return rec[len(treeMagic) : len(rec)-4] }
	final := readHexFile(f, "testdata/bootstrap_task_s2b2_final.hex")
	return [][]byte{
		body(readHexFile(f, "testdata/checkpoint_v1_spec4_round1.hex")),
		body(readHexFile(f, "testdata/bootstrap_task_s2b2_round1.hex")),
		body(final[:len(final)-8]),
	}
}

// fuzzDecode frames each fuzzed body with magic and a valid CRC, so mutations
// reach the decoder, and checks that decoding neither panics nor allocates
// past the bound above, and that a decoded value encodes to bytes that decode
// to the same value again.
func fuzzDecode[V any](f *testing.F, magic [8]byte, decode func([]byte) (V, error), encode func(V) []byte) {
	for _, b := range fuzzSeedBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := frame(magic, body)
		var v V
		var err error
		if alloc := decodeAlloc(func() { v, err = decode(rec) }); alloc > decodeAllocBase+decodeAllocPerByte*uint64(len(rec)) {
			t.Fatalf("decoding a %d-byte record allocated %d bytes", len(rec), alloc)
		}
		if err != nil {
			return
		}
		enc := encode(v)
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("a decoded record re-encodes to bytes that do not decode: %v", err)
		}
		if !bytes.Equal(encode(again), enc) {
			t.Fatal("a decoded record re-encoded and decoded again is not the same value")
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	fuzzDecode(f, checkpointMagic, DecodeCheckpoint, func(c *Checkpoint) []byte { return c.AppendBinary(nil) })
}

func FuzzDecodeTreeBinary(f *testing.F) {
	fuzzDecode(f, treeMagic, DecodeTreeBinary, func(t *Tree) []byte { return AppendTreeBinary(nil, t) })
}
