package phylo

// This file implements the transition-matrix cache: the flattened storage for
// P(b·rate) across all rate categories, keyed by branch length.
//
// Motivation: the vector kernel walks the same tree over and over — the down
// and out traversals revisit every branch once per smoothing pass. Recomputing
// exp(Q·b·rate) (an eigen-exponential for GTR) per visit made matrix
// construction, not the per-pattern loops, the dominant cost. Caching by
// branch length makes repeat visits free and keeps the steady-state kernel
// loops allocation-free. (Makenewz needs no matrices: its Newton iterates run
// against the per-edge sum table, see likelihood.go.)
//
// Layout: one flat []float64 of nCat*flatMatSize entries per branch length;
// category r occupies [r*flatMatSize, (r+1)*flatMatSize), row-major [from*4+to].
// The flat layout is what the stride-indexed kernels in likelihood.go index
// directly, with no [4][4] double indirection.
//
// Storage: entry vectors are carved from a double-buffered slab (transSlab)
// instead of being allocated per miss. Hitting the maxCacheEntries bound
// clears the map (clear keeps the buckets, so refilling to the previous size
// never grows them) and swaps the slab's arena sets, so all retired entries
// become reusable at once while an entry a caller is holding across the clear
// (Newview holds its left child's matrices while it fetches the right's)
// stays valid — it lives in the other arena set, which is not carved again
// until the NEXT overflow, thousands of inserts away. The result: a search
// whose length stream replays (the steady state of the benchmark and
// alloc-guard loops) allocates nothing, no matter how many overflow cycles it
// goes through.
//
// Invalidation: a branch length is the key, so changing a length simply stops
// hitting its old entry — no explicit invalidation is needed for branch
// optimization. Mutating the Model or Rates in place is the only operation
// that must call InvalidateTransitions.

// flatMatSize is the number of entries of one flattened 4x4 matrix.
const flatMatSize = NumStates * NumStates

// maxCacheEntries bounds the cache map. A long tree search touches a stream
// of distinct accepted branch lengths; when the bound is hit the whole map is
// dropped (the working set — the tree's current branch lengths — is rebuilt
// within one traversal). 4096 entries of a 4-category model are about 2 MB.
const maxCacheEntries = 4096

// slabBlockEntries is the number of entries each slab arena block holds.
// Blocks are allocated on demand up to the high-water mark of one overflow
// cycle, so a lightly used engine stays small.
const slabBlockEntries = 256

// transSlab carves fixed-size []float64 entries out of block arenas. It keeps
// two arena sets and swap flips between them, so entries handed out just
// before a swap survive until the following swap (see the file comment for
// why that is safe here).
type transSlab struct {
	entry  int // floats per entry
	blocks [2][][]float64
	active int
	used   int // entries carved from the active set
}

// alloc carves the next entry, growing the active arena set only past its
// high-water mark.
func (s *transSlab) alloc() []float64 {
	bi := s.used / slabBlockEntries
	off := (s.used % slabBlockEntries) * s.entry
	for bi >= len(s.blocks[s.active]) {
		s.blocks[s.active] = append(s.blocks[s.active], make([]float64, slabBlockEntries*s.entry))
	}
	s.used++
	b := s.blocks[s.active][bi]
	return b[off : off+s.entry : off+s.entry]
}

// swap retires the active arena set and starts carving the other one from the
// top. Previously carved entries keep their contents until the set they live
// in becomes active again.
func (s *transSlab) swap() {
	s.active ^= 1
	s.used = 0
}

// transCache serves the flattened per-category matrices of one model under
// one set of category rates, by branch length.
type transCache struct {
	model Model
	rates []float64
	probs map[float64][]float64
	slab  transSlab
}

// reset drops every entry and binds the cache to the model and rates that
// later misses are filled from.
func (c *transCache) reset(model Model, rates []float64) {
	*c = transCache{
		model: model,
		rates: rates,
		probs: make(map[float64][]float64),
		slab:  transSlab{entry: len(rates) * flatMatSize},
	}
}

// get returns the matrices for a branch of length b. Repeat lookups of a
// length are free; a miss carves its entry from the slab, so it allocates
// only past the slab's high-water mark. The returned slice stays valid until
// the second overflow after the call.
func (c *transCache) get(b float64) []float64 {
	if p, ok := c.probs[b]; ok {
		return p
	}
	if len(c.probs) >= maxCacheEntries {
		clear(c.probs)
		c.slab.swap()
	}
	p := c.slab.alloc()
	fillTransition(p, c.model, c.rates, b)
	c.probs[b] = p
	return p
}

// fillTransition writes the flattened per-category probability matrices of a
// branch of length b into dst (len(rates)*flatMatSize).
func fillTransition(dst []float64, model Model, rates []float64, b float64) {
	for r, rate := range rates {
		m := model.Transition(b * rate)
		o := r * flatMatSize
		for i := 0; i < NumStates; i++ {
			for j := 0; j < NumStates; j++ {
				dst[o+i*NumStates+j] = m[i][j]
			}
		}
	}
}

// InvalidateTransitions drops every cached transition matrix, re-reads the
// model's spectrum and marks every conditional vector stale. It must be
// called after mutating e.Model or e.Rates in place: the conditional vectors
// were computed through the old model's matrices, so the lazy traversals must
// not keep serving them (branch-length changes, by contrast, need no
// invalidation because the length itself is the cache key and optimizeEdge
// invalidates its updates).
func (e *Engine) InvalidateTransitions() {
	e.trans.reset(e.Model, e.Rates.Rates)
	e.initSpectrum()
	e.InvalidateAll()
}
