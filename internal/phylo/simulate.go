package phylo

import (
	"fmt"
	"math/rand"
)

// SimulateOptions parameterizes synthetic data generation.
type SimulateOptions struct {
	// Taxa is the number of organisms.
	Taxa int
	// Length is the number of alignment columns.
	Length int
	// Model generates the data (defaults to JC69).
	Model Model
	// Rates is the among-site rate model (defaults to a single rate).
	Rates RateCategories
	// MeanBranchLength controls how divergent the sequences are; branch
	// lengths are drawn uniformly from (0.5, 1.5) times this mean.
	MeanBranchLength float64
	// Seed drives tree shape, branch lengths and sequence evolution.
	Seed int64
}

// DefaultSimulateOptions returns a small, quickly analysable data set.
func DefaultSimulateOptions() SimulateOptions {
	return SimulateOptions{
		Taxa:             12,
		Length:           600,
		MeanBranchLength: 0.08,
		Seed:             7,
	}
}

// Simulate builds a random tree and evolves sequences down it, returning both
// the true tree and the resulting alignment. It is used by tests (can the
// search recover the generating topology?), by the examples, and by
// cmd/raxml-go to produce demo inputs.
func Simulate(opts SimulateOptions) (*Tree, *Alignment, error) {
	if opts.Taxa < 3 {
		return nil, nil, fmt.Errorf("phylo: need at least 3 taxa, got %d", opts.Taxa)
	}
	if opts.Length <= 0 {
		return nil, nil, fmt.Errorf("phylo: need a positive sequence length, got %d", opts.Length)
	}
	model := opts.Model
	if model == nil {
		model = NewJC69()
	}
	rates := opts.Rates
	if rates.Count() == 0 {
		rates = SingleRate()
	}
	if opts.MeanBranchLength <= 0 {
		opts.MeanBranchLength = 0.08
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	names := make([]string, opts.Taxa)
	for i := range names {
		names[i] = fmt.Sprintf("taxon%02d", i)
	}
	tree, err := NewRandomTree(names, rng)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range tree.Edges() {
		n.Length = opts.MeanBranchLength * (0.5 + float64(rng.Float64()))
	}

	freqs := model.Frequencies()
	aln := &Alignment{Names: names, Seqs: make([][]byte, opts.Taxa)}
	for i := range aln.Seqs {
		aln.Seqs[i] = make([]byte, opts.Length)
	}
	letters := [NumStates]byte{'A', 'C', 'G', 'T'}

	sample := func(probs [NumStates]float64) int {
		r := rng.Float64()
		var acc float64
		for s := 0; s < NumStates; s++ {
			acc += probs[s]
			if r <= acc {
				return s
			}
		}
		return NumStates - 1
	}

	states := make(map[int]int, len(tree.Nodes))
	for site := 0; site < opts.Length; site++ {
		rate := rates.Rates[rng.Intn(rates.Count())]
		// Draw the root state from the stationary distribution and push it
		// down the tree through the per-branch transition matrices.
		states[tree.Root.ID] = sample(freqs)
		PreOrder(tree.Root, func(n *Node) {
			if n.Parent == nil {
				return
			}
			p := model.Transition(n.Length * rate)
			parentState := states[n.Parent.ID]
			var row [NumStates]float64
			copy(row[:], p[parentState][:])
			states[n.ID] = sample(row)
		})
		for _, tip := range tree.Tips() {
			aln.Seqs[tip.Taxon][site] = letters[states[tip.ID]]
		}
	}
	return tree, aln, nil
}
