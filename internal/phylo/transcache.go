package phylo

import "math"

// This file holds the transition matrices P(b·rate) of every edge, kept the
// way the engine keeps everything else: one flat block indexed by Node.ID.
//
// Layout: node id owns nCat*flatMatSize entries; category r occupies
// [r*flatMatSize, (r+1)*flatMatSize), row-major [from*4+to] — what the
// stride-indexed kernels in likelihood.go index directly.
//
// The length is the tag: filled[id] records the branch length slot id was
// last filled for, so changing a length needs no invalidation (the tag stops
// matching and the next get refills), and a slot handed out for one node is
// never written on behalf of another.

// flatMatSize is the number of entries of one flattened 4x4 matrix.
const flatMatSize = NumStates * NumStates

// transCache serves the flattened per-category matrices of one model under
// one set of category rates, per node.
type transCache struct {
	model  Model
	rates  []float64
	probs  []float64 // nodes * len(rates) * flatMatSize
	filled []float64 // per node: the length its slot holds; NaN = never filled
}

// newTransCache returns an empty store for the given number of nodes.
func newTransCache(model Model, rates []float64, nodes int) transCache {
	c := transCache{
		model:  model,
		rates:  rates,
		probs:  make([]float64, nodes*len(rates)*flatMatSize),
		filled: make([]float64, nodes),
	}
	for i := range c.filled {
		c.filled[i] = math.NaN()
	}
	return c
}

// get returns the matrices of the edge above node id at length b, filling the
// node's slot only when it holds another length.
func (c *transCache) get(id int, b float64) []float64 {
	per := len(c.rates) * flatMatSize
	p := c.probs[id*per : (id+1)*per : (id+1)*per]
	if c.filled[id] != b {
		fillTransition(p, c.model, c.rates, b)
		c.filled[id] = b
	}
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
