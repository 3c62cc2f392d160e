package phylo_test

// The tier-1 benchmark set — fixtures AND timed loop bodies — is defined in
// internal/benchfix and shared with cmd/benchreport, which writes the
// committed BENCH_PR*.json record; the benchmarks here are thin named
// wrappers, so the two can never drift apart. Only the cache-ablation
// (NoCache) variants, which exist solely in the test suite, keep local
// bodies. This file lives in the external test package so it can import
// benchfix without a cycle.

import (
	"math/rand"
	"testing"

	"cellmg/internal/benchfix"
	"cellmg/internal/phylo"
)

// benchGTR returns a GTR model with non-trivial exchange rates, the
// configuration whose transition matrices cost an eigen-exponential each —
// what the transition cache exists to amortize.
func benchGTR(b *testing.B) *phylo.GTR {
	b.Helper()
	g, err := benchfix.BenchGTR()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchGamma4(b *testing.B) phylo.RateCategories {
	b.Helper()
	rates, err := benchfix.BenchGamma4()
	if err != nil {
		b.Fatal(err)
	}
	return rates
}

// BenchmarkNewview measures one conditional-likelihood-vector update — the
// paper's dominant off-loaded kernel (76.8% of sequential time).
func BenchmarkNewview(b *testing.B) {
	benchfix.Newview(phylo.NewJC69(), phylo.SingleRate())(b)
}

// BenchmarkNewviewGamma4 is the same update with four discrete-Gamma rate
// categories (4x the arithmetic and cache footprint per pattern).
func BenchmarkNewviewGamma4(b *testing.B) {
	benchfix.Newview(phylo.NewJC69(), benchGamma4(b))(b)
}

// BenchmarkNewviewGTRGamma4 and its NoCache counterpart quantify what the
// transition-matrix cache buys under the expensive model family: with the
// cache disabled every Newview recomputes eight eigen-exponential matrices
// (two children x four rate categories).
func BenchmarkNewviewGTRGamma4(b *testing.B) {
	benchfix.Newview(benchGTR(b), benchGamma4(b))(b)
}

func BenchmarkNewviewGTRGamma4NoCache(b *testing.B) {
	eng, tree, err := benchfix.KernelEngine(benchGTR(b), benchGamma4(b))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTransitionCache(false)
	eng.LogLikelihood(tree)
	node := benchfix.KernelInternalNode(tree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Newview(node)
	}
}

// BenchmarkEvaluate measures one full log-likelihood evaluation (a post-order
// newview sweep plus the root evaluation) in steady state; every iteration
// invalidates everything so the whole tree really recomputes.
func BenchmarkEvaluate(b *testing.B) {
	benchfix.EvaluateFullSweep(phylo.SingleRate())(b)
}

// BenchmarkEvaluateGamma4 is the same with four discrete-Gamma rate
// categories (the memory- and compute-heavier configuration real analyses
// use).
func BenchmarkEvaluateGamma4(b *testing.B) {
	benchfix.EvaluateFullSweep(benchGamma4(b))(b)
}

// BenchmarkEvaluateIncremental measures the partial-traversal path the tree
// search lives on: invalidate one edge, re-evaluate — the per-candidate cost
// model of the incremental NNI search.
func BenchmarkEvaluateIncremental(b *testing.B) {
	benchfix.EvaluateIncremental()(b)
}

// BenchmarkMakenewz measures one branch-length optimization (Newton-Raphson
// on one edge), the paper's second hottest kernel, in steady state.
func BenchmarkMakenewz(b *testing.B) {
	benchfix.Makenewz(phylo.NewJC69(), phylo.SingleRate())(b)
}

// BenchmarkMakenewzGTRGamma4 and its NoCache counterpart measure the Newton
// kernel under the expensive model family; with the cache disabled every
// Newton iteration recomputes its twelve derivative matrices from the model.
func BenchmarkMakenewzGTRGamma4(b *testing.B) {
	benchfix.Makenewz(benchGTR(b), benchGamma4(b))(b)
}

func BenchmarkMakenewzGTRGamma4NoCache(b *testing.B) {
	eng, tree, err := benchfix.KernelEngine(benchGTR(b), benchGamma4(b))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTransitionCache(false)
	edge := tree.Edges()[len(tree.Edges())/2]
	eng.OptimizeBranch(tree, edge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.OptimizeBranch(tree, edge)
	}
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
// full recomputation. The sub-benchmark keeps the name the committed
// BENCH_PR*.json records use.
func BenchmarkSearchNNI(b *testing.B) {
	b.Run("incremental", benchfix.SearchNNI())
}

// BenchmarkCheckpointWrite measures encoding one search checkpoint into a
// reused buffer — the cost SearchOptions.Checkpoint adds at every sweep
// boundary before the bytes reach the write-ahead log. Must be
// allocation-free (alloc_test-style guard lives in checkpoint_test.go).
func BenchmarkCheckpointWrite(b *testing.B) {
	benchfix.CheckpointWrite()(b)
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

// BenchmarkEvaluateFlight measures the full-sweep evaluation with its loops
// work-shared on a native runtime, with the flight recorder on ("traced")
// and off ("off"). The PR 7 acceptance bound is traced within 2% of off.
func BenchmarkEvaluateFlight(b *testing.B) {
	b.Run("traced", benchfix.EvaluateFullSweepFlight(true))
	b.Run("off", benchfix.EvaluateFullSweepFlight(false))
}

// BenchmarkSearchNNIFlight is the same recorder-overhead pair on the 50-taxon
// NNI search — the loop-densest workload, so the worst case for tracing cost.
func BenchmarkSearchNNIFlight(b *testing.B) {
	b.Run("traced", benchfix.SearchNNIFlight(true))
	b.Run("off", benchfix.SearchNNIFlight(false))
}
