// Package benchfix defines the tier-1 hot-path benchmark set in exactly one
// place — the fixtures (dimensions, seeds, search options) AND the timed
// loop bodies — shared by the test-suite benchmarks
// (internal/phylo/bench_test.go) and the committed performance record
// (cmd/benchreport). A change to a workload or a measurement loop here
// propagates to both, so BENCH_PR*.json can never silently measure
// different semantics than `go test -bench` does.
package benchfix

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cellmg/internal/phylo"
)

// Kernel workload: the dimensions of the paper's 42_SC input, so kernel
// benchmarks measure the granularity the paper's scheduler sees.
const (
	KernelTaxa     = 42
	KernelLength   = 1167
	KernelDataSeed = 42
	KernelTreeSeed = 1
)

// Search workload: the 50-taxon NNI search of the incremental-vs-full
// comparison (BenchmarkSearchNNI, benchreport's SearchNNI pair).
const (
	SearchTaxa     = 50
	SearchLength   = 300
	SearchDataSeed = 11
)

// EdgeFlipLengths are the two branch lengths the incremental-evaluation
// benchmarks alternate between; both must be warmed (assigned, invalidated
// and evaluated once) before the timed loop so the transition cache hits
// throughout.
var EdgeFlipLengths = [2]float64{0.05, 0.06}

// KernelEngine builds the kernel-benchmark engine and its random starting
// tree. The engine is cold: callers warm buffers and caches themselves
// (eng.Refresh(tree) or a first LogLikelihood), so each benchmark controls
// its own steady state.
func KernelEngine(model phylo.Model, rates phylo.RateCategories) (*phylo.Engine, *phylo.Tree, error) {
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{
		Taxa: KernelTaxa, Length: KernelLength, Seed: KernelDataSeed, MeanBranchLength: 0.08,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("benchfix: kernel alignment: %w", err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return nil, nil, fmt.Errorf("benchfix: kernel alignment: %w", err)
	}
	eng, err := phylo.NewEngine(data, model, rates)
	if err != nil {
		return nil, nil, fmt.Errorf("benchfix: kernel engine: %w", err)
	}
	tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(KernelTreeSeed)))
	if err != nil {
		return nil, nil, fmt.Errorf("benchfix: kernel tree: %w", err)
	}
	return eng, tree, nil
}

// KernelInternalNode picks the internal non-root node the single-kernel
// benchmarks update.
func KernelInternalNode(tree *phylo.Tree) *phylo.Node {
	var node *phylo.Node
	phylo.PostOrder(tree.Root, func(n *phylo.Node) {
		if node == nil && !n.IsTip() && n.Parent != nil {
			node = n
		}
	})
	return node
}

// SearchAlignment builds the 50-taxon pattern alignment of the NNI-search
// benchmark.
func SearchAlignment() (*phylo.PatternAlignment, error) {
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{
		Taxa: SearchTaxa, Length: SearchLength, Seed: SearchDataSeed, MeanBranchLength: 0.08,
	})
	if err != nil {
		return nil, fmt.Errorf("benchfix: search alignment: %w", err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		return nil, fmt.Errorf("benchfix: search alignment: %w", err)
	}
	return data, nil
}

// SearchNNIOptions are the search settings of the SearchNNI benchmarks.
func SearchNNIOptions() phylo.SearchOptions {
	return phylo.SearchOptions{
		SmoothingRounds: 2,
		MaxRounds:       2,
		Epsilon:         0.01,
		Seed:            7,
	}
}

// BenchGTR is the GTR parameterization of the expensive-model benchmarks
// (non-trivial exchange rates: one eigen-exponential per transition matrix).
func BenchGTR() (*phylo.GTR, error) {
	return phylo.NewGTR(
		[6]float64{1.5, 3, 0.7, 1.2, 4, 1},
		phylo.Frequencies{0.28, 0.22, 0.24, 0.26},
	)
}

// BenchGamma4 is the four-category discrete-Gamma rate heterogeneity of the
// Gamma benchmarks.
func BenchGamma4() (phylo.RateCategories, error) {
	return phylo.DiscreteGamma(0.8, 4)
}

// The functions below are the shared timed loop bodies: each returns a
// ready-to-run benchmark (fixture setup and warm-up inside, before the
// timer reset) usable both as a `testing.B` benchmark function and through
// `testing.Benchmark` in cmd/benchreport.

// Newview benchmarks one conditional-likelihood-vector update — the paper's
// dominant off-loaded kernel — under the given model and rates.
func Newview(model phylo.Model, rates phylo.RateCategories) func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, err := KernelEngine(model, rates)
		if err != nil {
			b.Fatal(err)
		}
		eng.LogLikelihood(tree) // populate buffers and the transition cache
		node := KernelInternalNode(tree)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			//cellmg:allow invalidation -- kernel microbenchmark; inputs unchanged, recomputed vector is bit-identical
			eng.Newview(node)
		}
	}
}

// EvaluateFullSweep benchmarks one whole-tree log-likelihood evaluation (a
// post-order Newview sweep plus the root evaluation) in steady state;
// InvalidateAll defeats the incremental skip so every iteration really
// recomputes the whole tree.
func EvaluateFullSweep(rates phylo.RateCategories) func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, err := KernelEngine(phylo.NewJC69(), rates)
		if err != nil {
			b.Fatal(err)
		}
		eng.LogLikelihood(tree)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InvalidateAll()
			eng.LogLikelihood(tree)
		}
	}
}

// EvaluateIncremental benchmarks the partial-traversal path the tree search
// lives on: invalidate one edge, re-evaluate. Only the edge's ancestor path
// is recomputed (O(depth) Newview calls instead of O(taxa)).
func EvaluateIncremental() func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, err := KernelEngine(phylo.NewJC69(), phylo.SingleRate())
		if err != nil {
			b.Fatal(err)
		}
		eng.LogLikelihood(tree)
		edge := tree.Edges()[len(tree.Edges())/2]
		for _, l := range EdgeFlipLengths { // warm both cache entries
			edge.Length = l
			eng.InvalidateEdge(edge)
			eng.LogLikelihood(tree)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edge.Length = EdgeFlipLengths[i%2]
			eng.InvalidateEdge(edge)
			eng.LogLikelihood(tree)
		}
	}
}

// Makenewz benchmarks one branch-length optimization (Newton-Raphson on one
// edge), the paper's second hottest kernel, in steady state.
func Makenewz(model phylo.Model, rates phylo.RateCategories) func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, err := KernelEngine(model, rates)
		if err != nil {
			b.Fatal(err)
		}
		edge := tree.Edges()[len(tree.Edges())/2]
		eng.OptimizeBranch(tree, edge) // converge the edge and warm the caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.OptimizeBranch(tree, edge)
		}
	}
}

// SearchEngine builds the search-benchmark engine and the seed-7 random
// starting tree (the same tree Engine.Search derives from SearchNNIOptions'
// seed), plus a topology snapshot for resetting the tree between runs.
func SearchEngine() (*phylo.Engine, *phylo.Tree, *phylo.TreeSnapshot, error) {
	data, err := SearchAlignment()
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := phylo.NewEngine(data, phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(SearchNNIOptions().Seed))
	tree, err := phylo.NewRandomTree(data.Names, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, tree, tree.CaptureTopology(), nil
}

// SearchNNI benchmarks the 50-taxon NNI search. The final log-likelihood is
// reported as the "logL" metric.
//
// The engine, the tree and the result struct live outside the timed loop and
// every iteration restores the same starting topology and invalidates the
// engine, so each op is one full search over identical work — the
// allocation-free steady state the search path guarantees (a cold warmup run
// precedes the timer so N=1 measurements are not dominated by slab and
// scratch growth).
func SearchNNI() func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, snap, err := SearchEngine()
		if err != nil {
			b.Fatal(err)
		}
		opts := SearchNNIOptions()
		var res phylo.SearchResult
		run := func() {
			if err := snap.Restore(tree); err != nil {
				b.Fatal(err)
			}
			eng.InvalidateAll()
			if err := eng.SearchInto(context.Background(), tree, opts, &res); err != nil {
				b.Fatal(err)
			}
		}
		run() // warm scratch, slabs and the transition cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
			b.ReportMetric(res.LogLikelihood, "logL")
		}
	}
}
