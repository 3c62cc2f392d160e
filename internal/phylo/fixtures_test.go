package phylo_test

// Kernel and search fixtures — dimensions, seeds, search options — shared by
// the micro-benchmarks (bench_test.go) and the allocation guards
// (alloc_test.go), so the guards pin the same workloads the benchmarks time.

import (
	"fmt"
	"math/rand"

	"cellmg/internal/phylo"
)

// Kernel workload: the dimensions of the paper's 42_SC input, so kernel
// benchmarks measure the granularity the paper's scheduler sees.
const (
	kernelTaxa     = 42
	kernelLength   = 1167
	kernelDataSeed = 42
	kernelTreeSeed = 1
)

// Search workload: the 50-taxon NNI search of BenchmarkSearchNNI.
const (
	searchTaxa     = 50
	searchLength   = 300
	searchDataSeed = 11
)

// edgeFlipLengths are the two branch lengths the incremental-evaluation
// benchmarks alternate between, so every cycle refills the edge's matrices.
var edgeFlipLengths = [2]float64{0.05, 0.06}

func fixtureAlignment(taxa, length int, seed int64) (*phylo.PatternAlignment, error) {
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{
		Taxa: taxa, Length: length, Seed: seed, MeanBranchLength: 0.08,
	})
	if err != nil {
		return nil, fmt.Errorf("fixture alignment: %w", err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return nil, fmt.Errorf("fixture alignment: %w", err)
	}
	return data, nil
}

// kernelEngine builds the kernel-benchmark engine and its random starting
// tree. The engine is cold: callers settle its vectors themselves
// (eng.Refresh(tree) or a first LogLikelihood), so each benchmark controls
// its own steady state.
func kernelEngine(model phylo.Model, rates phylo.RateCategories) (*phylo.Engine, *phylo.Tree, error) {
	return fixtureEngine(kernelTaxa, kernelLength, model, rates)
}

// fixtureEngine is kernelEngine at other dimensions (same seeds).
func fixtureEngine(taxa, length int, model phylo.Model, rates phylo.RateCategories) (*phylo.Engine, *phylo.Tree, error) {
	data, err := fixtureAlignment(taxa, length, kernelDataSeed)
	if err != nil {
		return nil, nil, err
	}
	eng, err := phylo.NewEngine(data, model, rates)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel engine: %w", err)
	}
	tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(kernelTreeSeed)))
	if err != nil {
		return nil, nil, fmt.Errorf("kernel tree: %w", err)
	}
	return eng, tree, nil
}

// kernelInternalNode picks the internal non-root node the single-kernel
// benchmarks update.
func kernelInternalNode(tree *phylo.Tree) *phylo.Node {
	var node *phylo.Node
	phylo.PostOrder(tree.Root, func(n *phylo.Node) {
		if node == nil && !n.IsTip() && n.Parent != nil {
			node = n
		}
	})
	return node
}

// searchNNIOptions are the search settings of the SearchNNI benchmark.
func searchNNIOptions() phylo.SearchOptions {
	return phylo.SearchOptions{
		SmoothingRounds: 2,
		MaxRounds:       2,
		Epsilon:         0.01,
		Seed:            7,
	}
}

// searchEngine builds the search-benchmark engine and the seed-7 random
// starting tree (the same tree Engine.Search derives from searchNNIOptions'
// seed), plus a topology snapshot for resetting the tree between runs.
func searchEngine() (*phylo.Engine, *phylo.Tree, *phylo.TreeSnapshot, error) {
	data, err := fixtureAlignment(searchTaxa, searchLength, searchDataSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := phylo.NewEngine(data, phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(searchNNIOptions().Seed))
	tree, err := phylo.NewRandomTree(data.Names, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	snap := &phylo.TreeSnapshot{}
	tree.CaptureTopologyInto(snap)
	return eng, tree, snap, nil
}
