package phylo_test

// This file is the allocation-regression guard for the likelihood hot path:
// the three paper kernels must stay allocation-free in steady state (warm
// buffers, warm transition cache), so a future change that reintroduces a
// per-call escape fails CI instead of silently eroding the PR 1 work. The
// fixtures (fixtures_test.go) are the workloads the micro-benchmarks time.

import (
	"context"
	"testing"

	"cellmg/internal/phylo"
)

// allocEngine builds the shared paper-sized kernel workload with every
// buffer sized and the transition cache warm.
func allocEngine(t *testing.T) (*phylo.Engine, *phylo.Tree) {
	t.Helper()
	return allocEngineFor(t, phylo.NewJC69(), phylo.SingleRate())
}

func allocEngineFor(t *testing.T, model phylo.Model, rates phylo.RateCategories) (*phylo.Engine, *phylo.Tree) {
	t.Helper()
	eng, tree, err := kernelEngine(model, rates)
	if err != nil {
		t.Fatal(err)
	}
	eng.Refresh(tree)
	return eng, tree
}

func TestNewviewAllocationFree(t *testing.T) {
	eng, tree := allocEngine(t)
	node := kernelInternalNode(tree)
	if node == nil {
		t.Fatal("tree has no internal non-root node")
	}
	if avg := testing.AllocsPerRun(100, func() { eng.Newview(node) }); avg != 0 {
		t.Errorf("Newview allocates %v per call in steady state, want 0", avg)
	}
}

func TestEvaluateRootAllocationFree(t *testing.T) {
	eng, tree := allocEngine(t)
	if avg := testing.AllocsPerRun(100, func() { eng.EvaluateRoot(tree) }); avg != 0 {
		t.Errorf("EvaluateRoot allocates %v per call in steady state, want 0", avg)
	}
}

// TestMakenewzEdgeAllocationFree covers the sum-table build and the Newton
// passes over it. Neither touches the transition cache, so there is nothing
// to warm beyond the buffers Refresh sized.
func TestMakenewzEdgeAllocationFree(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		model phylo.Model
		rates phylo.RateCategories
	}{
		{"JC69_single", phylo.NewJC69(), phylo.SingleRate()},
		{"GTR_gamma4", benchGTR(t), benchGamma4(t)},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			eng, tree := allocEngineFor(t, cfg.model, cfg.rates)
			edge := tree.Edges()[len(tree.Edges())/2]
			if avg := testing.AllocsPerRun(20, func() { eng.MakenewzEdge(edge) }); avg != 0 {
				t.Errorf("MakenewzEdge allocates %v per call in steady state, want 0", avg)
			}
		})
	}
}

// TestIncrementalEvaluationAllocationFree guards the new invalidation path:
// a steady-state invalidate-one-edge + re-evaluate cycle (the inner loop of
// the incremental tree search) must not allocate either.
func TestIncrementalEvaluationAllocationFree(t *testing.T) {
	eng, tree := allocEngine(t)
	edge := tree.Edges()[len(tree.Edges())/3]
	eng.LogLikelihood(tree)
	lengths := edgeFlipLengths
	// Warm both branch-length cache entries the flip cycle touches.
	for _, l := range lengths {
		edge.Length = l
		eng.InvalidateEdge(edge)
		eng.LogLikelihood(tree)
	}
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		edge.Length = lengths[i%2]
		i++
		eng.InvalidateEdge(edge)
		eng.LogLikelihood(tree)
	}); avg != 0 {
		t.Errorf("incremental invalidate+evaluate allocates %v per cycle, want 0", avg)
	}
}

// TestSearchAllocationFree pins the ENTIRE search path — move generation,
// topology snapshot/restore, NNI apply/revert, branch smoothing, tree
// validation, site-repeat class rebuilds and the transition-cache slab — at
// zero allocations per full search once the engine's scratch is warm. This is
// the headline guard of the 39k-allocs-per-search fix: before the arena
// scratch and SearchInto, every search allocated ~39,000 times.
func TestSearchAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full NNI searches are slow; skipped in -short mode")
	}
	eng, tree, snap, err := searchEngine()
	if err != nil {
		t.Fatal(err)
	}
	opts := searchNNIOptions()
	ctx := context.Background()
	var res phylo.SearchResult
	run := func() {
		if err := snap.Restore(tree); err != nil {
			t.Fatal(err)
		}
		eng.InvalidateAll()
		if err := eng.SearchInto(ctx, tree, opts, &res); err != nil {
			t.Fatal(err)
		}
	}
	// Two warm searches: the first grows every scratch buffer and the cache
	// slab high-water mark, the second confirms the sizes have settled before
	// the guarded runs (AllocsPerRun adds one more warmup of its own).
	run()
	run()
	if avg := testing.AllocsPerRun(3, run); avg != 0 {
		t.Errorf("full NNI search allocates %v per run in steady state, want 0", avg)
	}
}
