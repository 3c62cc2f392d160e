package phylo_test

// The go-test micro-benchmarks that guard kernel cost and the 0-alloc
// contract where the kernels live. The fixtures come from fixtures_test.go;
// the repo's benchmark proper — end-to-end workloads and per-layer metrics
// (including checkpoint encoding, WAL appends and flight-recorder overhead) —
// is the bench/ module. BenchmarkOutview{,Gamma4}, the outer-vector kernel on
// the same input, lives in likelihood_test.go because that kernel has no
// exported entry point.

import (
	"context"
	"math/rand"
	"testing"

	"cellmg/internal/phylo"
)

// benchGTR returns a GTR model with non-trivial exchange rates, the
// configuration whose transition matrices cost an eigen-exponential each —
// what keeping each edge's matrices until its length changes amortizes.
func benchGTR(b testing.TB) *phylo.GTR {
	b.Helper()
	g, err := phylo.NewGTR(
		[6]float64{1.5, 3, 0.7, 1.2, 4, 1},
		phylo.Frequencies{0.28, 0.22, 0.24, 0.26},
	)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchGamma4(b testing.TB) phylo.RateCategories {
	b.Helper()
	rates, err := phylo.DiscreteGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	return rates
}

// BenchmarkNewview measures one conditional-likelihood-vector update — the
// paper's dominant off-loaded kernel (76.8% of sequential time) — cycling over
// every internal node, as BenchmarkOutview cycles over edges: re-running one
// node on unchanged inputs would let the branch predictor learn its data.
func BenchmarkNewview(b *testing.B) {
	benchNewview(b, phylo.NewJC69(), phylo.SingleRate())
}

func benchNewview(b *testing.B, model phylo.Model, rates phylo.RateCategories) {
	eng, tree, err := kernelEngine(model, rates)
	if err != nil {
		b.Fatal(err)
	}
	eng.LogLikelihood(tree) // settle the vectors and every edge's matrices
	var nodes []*phylo.Node
	phylo.PostOrder(tree.Root, func(n *phylo.Node) {
		if !n.IsTip() {
			nodes = append(nodes, n)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Inputs unchanged: each recomputed vector is bit-identical (see Newview).
		eng.Newview(nodes[i%len(nodes)])
	}
}

// BenchmarkNewviewGamma4 is the same update with four discrete-Gamma rate
// categories (4x the arithmetic and cache footprint per pattern).
func BenchmarkNewviewGamma4(b *testing.B) {
	benchNewview(b, phylo.NewJC69(), benchGamma4(b))
}

// BenchmarkNewviewGTRGamma4 is the update under the expensive model family,
// whose matrices cost an eigen-exponential each when a length changes; the
// timed loop changes none.
func BenchmarkNewviewGTRGamma4(b *testing.B) {
	benchNewview(b, benchGTR(b), benchGamma4(b))
}

// BenchmarkEvaluate measures one full log-likelihood evaluation (a post-order
// newview sweep plus the root evaluation) in steady state; InvalidateAll
// defeats the incremental skip so every iteration really recomputes the
// whole tree.
func BenchmarkEvaluate(b *testing.B) {
	benchEvaluate(b, phylo.SingleRate())
}

func benchEvaluate(b *testing.B, rates phylo.RateCategories) {
	eng, tree, err := kernelEngine(phylo.NewJC69(), rates)
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

// BenchmarkEvaluateGamma4 is the same with four discrete-Gamma rate
// categories (the memory- and compute-heavier configuration real analyses
// use).
func BenchmarkEvaluateGamma4(b *testing.B) {
	benchEvaluate(b, benchGamma4(b))
}

// BenchmarkEvaluateIncremental measures the partial-traversal path the tree
// search lives on: invalidate one edge, re-evaluate — the per-candidate cost
// model of the incremental NNI search. Only the edge's ancestor path is
// recomputed (O(depth) Newview calls instead of O(taxa)).
func BenchmarkEvaluateIncremental(b *testing.B) {
	eng, tree, err := kernelEngine(phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		b.Fatal(err)
	}
	eng.LogLikelihood(tree)
	edge := tree.Edges()[len(tree.Edges())/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edge.Length = edgeFlipLengths[i%2]
		eng.InvalidateEdge(edge)
		eng.LogLikelihood(tree)
	}
}

// BenchmarkMakenewz measures one branch-length optimization (Newton-Raphson
// on one edge), the paper's second hottest kernel, in steady state.
func BenchmarkMakenewz(b *testing.B) {
	benchMakenewz(b, phylo.NewJC69(), phylo.SingleRate())
}

func benchMakenewz(b *testing.B, model phylo.Model, rates phylo.RateCategories) {
	eng, tree, err := kernelEngine(model, rates)
	if err != nil {
		b.Fatal(err)
	}
	edge := tree.Edges()[len(tree.Edges())/2]
	eng.OptimizeBranch(tree, edge) // converge the edge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.OptimizeBranch(tree, edge)
	}
}

// BenchmarkMakenewzGTRGamma4 measures the same visit under the expensive
// model family. The Newton passes read no transition matrices; the partial
// traversal and the closing evaluation around them do.
func BenchmarkMakenewzGTRGamma4(b *testing.B) {
	benchMakenewz(b, benchGTR(b), benchGamma4(b))
}

// BenchmarkBootstrapResample measures drawing one bootstrap replicate's
// weights.
func BenchmarkBootstrapResample(b *testing.B) {
	_, aln, _ := phylo.Simulate(phylo.SimulateOptions{Taxa: 42, Length: 1167, Seed: 2})
	data, _ := phylo.Compress(aln)
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phylo.BootstrapWeights(data, rng)
	}
}

// BenchmarkSearchNNI measures a 50-taxon NNI search (dirty-path partial
// traversals + local re-optimization per candidate); the equivalence tests in
// incremental_test.go prove the likelihoods it reports are byte-identical to
// full recomputation. The final log-likelihood is reported as "logL".
//
// The engine, the tree and the result struct live outside the timed loop and
// every iteration restores the same starting topology and invalidates the
// engine, so each op is one full search over identical work — the
// allocation-free steady state the search path guarantees (a cold warmup run
// precedes the timer so N=1 measurements are not dominated by scratch
// growth).
func BenchmarkSearchNNI(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		eng, tree, snap, err := searchEngine()
		if err != nil {
			b.Fatal(err)
		}
		opts := searchNNIOptions()
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
		run() // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
			b.ReportMetric(res.LogLikelihood, "logL")
		}
	})
}

// BenchmarkSmallSearch measures a complete small tree search — the unit of
// task-level parallelism in the native runtime benchmarks.
func BenchmarkSmallSearch(b *testing.B) {
	_, aln, _ := phylo.Simulate(phylo.SimulateOptions{Taxa: 8, Length: 300, Seed: 5, MeanBranchLength: 0.1})
	data, _ := phylo.Compress(aln)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _ := phylo.NewEngine(data, phylo.NewJC69(), phylo.SingleRate())
		if _, err := eng.Search(phylo.SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.05, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapSearch measures the unit the paper's workload repeats: one
// bootstrap task through RunTask — resample, replicate, engine, search — on
// the shape of bench/'s batch_bootstraps (10 taxa × 300 sites, JC69, default
// search), cycling through that workload's 14 replicate ids. A replicate holds
// only the patterns its resample drew, so next to the time it reports how many
// that is (patterns/op) and as a share of the alignment's patterns (kept) —
// the per-layer number behind batch_bootstraps' op_p50_ms.
func BenchmarkBootstrapSearch(b *testing.B) {
	so := phylo.DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed = 10, 300, 1
	_, aln, err := phylo.Simulate(so)
	if err != nil {
		b.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		b.Fatal(err)
	}
	opts := phylo.AnalysisOptions{Seed: 1, Search: phylo.DefaultSearchOptions()}
	const replicates = 14
	var kept [replicates]int
	for id := range kept {
		rng := rand.New(rand.NewSource(phylo.DeriveSeed(opts.Seed, phylo.SeedStreamBootstrapWeights, id)))
		replicate, err := phylo.Bootstrap(data, rng)
		if err != nil {
			b.Fatal(err)
		}
		kept[id] = replicate.NumPatterns()
	}
	patterns := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := phylo.TaskID{Bootstrap: true, Index: i % replicates}
		if _, err := phylo.RunTask(context.Background(), data, phylo.NewJC69(), phylo.SingleRate(), opts, id, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
		patterns += kept[id.Index]
	}
	mean := float64(patterns) / float64(b.N)
	b.ReportMetric(mean, "patterns/op")
	b.ReportMetric(mean/float64(data.NumPatterns()), "kept")
}

// BenchmarkSingleSearch measures one inference through RunTask, run serially,
// on the shape of bench/'s single_search (14 taxa × 500 sites simulated under
// four discrete-Gamma categories of shape 0.8, JC69, default search) — the
// four-category kernels' per-layer number, as BootstrapSearch is the
// single-rate ones'.
func BenchmarkSingleSearch(b *testing.B) {
	rates := benchGamma4(b)
	so := phylo.DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed, so.Rates = 14, 500, 2, rates
	_, aln, err := phylo.Simulate(so)
	if err != nil {
		b.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		b.Fatal(err)
	}
	opts := phylo.AnalysisOptions{Seed: 2, Search: phylo.DefaultSearchOptions()}
	var logL float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := phylo.RunTask(context.Background(), data, phylo.NewJC69(), rates, opts, phylo.TaskID{}, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		logL = res.LogLik
	}
	b.ReportMetric(float64(data.NumPatterns()), "patterns")
	b.ReportMetric(logL, "logL")
}
