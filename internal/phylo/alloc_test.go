package phylo_test

// This file is the allocation-regression guard for the likelihood hot path:
// the three paper kernels must stay allocation-free in steady state, so a
// future change that reintroduces a
// per-call escape fails CI instead of silently eroding the PR 1 work. The
// fixtures (fixtures_test.go) are the workloads the micro-benchmarks time.

import (
	"context"
	"runtime"
	"testing"

	"cellmg/internal/phylo"
)

// allocEngine builds the shared paper-sized kernel workload, every vector
// settled.
func allocEngine(t *testing.T) (*phylo.Engine, *phylo.Tree) {
	t.Helper()
	eng, tree, err := kernelEngine(phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	eng.Refresh(tree)
	return eng, tree
}

// forEachKernelFixture runs a kernel guard on the paper-sized workload under
// both models and on two inputs that reach the kernels' cold arms, so an
// allocation there fails the same guard as one on the common path:
// a 240-taxon tree is deep enough that newviewBody rescales, and zero_cherry
// is the JC69 workload with both branches of one cherry at length 0 — P(0) is
// the identity, so every pattern the two tips disagree on has likelihood
// exactly zero and the ≤ 0 clamps of evaluateBody and newtonBody and
// makenewz's lower bound run.
func forEachKernelFixture(t *testing.T, guard func(t *testing.T, eng *phylo.Engine, tree *phylo.Tree)) {
	jc, single, gtr, gamma := phylo.NewJC69(), phylo.SingleRate(), benchGTR(t), benchGamma4(t)
	for _, f := range []struct {
		name         string
		model        phylo.Model
		rates        phylo.RateCategories
		taxa, length int
		zeroCherry   bool
	}{
		{"JC69_single", jc, single, kernelTaxa, kernelLength, false},
		{"GTR_gamma4", gtr, gamma, kernelTaxa, kernelLength, false},
		{"rescaled_240_taxa", gtr, gamma, 240, 40, false},
		{"zero_cherry", jc, single, kernelTaxa, kernelLength, true},
	} {
		t.Run(f.name, func(t *testing.T) {
			eng, tree, err := fixtureEngine(f.taxa, f.length, f.model, f.rates)
			if err != nil {
				t.Fatal(err)
			}
			if f.zeroCherry {
				collapseCherry(tree)
			}
			eng.Refresh(tree)
			guard(t, eng, tree)
		})
	}
}

// collapseCherry sets both branches of the tree's first cherry to length 0 and
// returns its two tips.
func collapseCherry(tree *phylo.Tree) (a, b *phylo.Node) {
	for _, n := range tree.Nodes {
		if !n.IsTip() && n.Children[0].IsTip() && n.Children[1].IsTip() {
			a, b = n.Children[0], n.Children[1]
			a.Length, b.Length = 0, 0
			break
		}
	}
	return a, b
}

func TestNewviewAllocationFree(t *testing.T) {
	forEachKernelFixture(t, func(t *testing.T, eng *phylo.Engine, tree *phylo.Tree) {
		// Every node: inner and tip children, rescaled or not, and the tips
		// themselves, which Newview leaves alone. Sibling rides along for its
		// two nil results: the root's, and an only child's.
		visit := func(n *phylo.Node) {
			eng.Newview(n)
			n.Sibling()
		}
		only := &phylo.Node{}
		only.Parent = &phylo.Node{Children: []*phylo.Node{only}}
		if avg := testing.AllocsPerRun(20, func() {
			phylo.PostOrder(tree.Root, visit)
			only.Sibling()
		}); avg != 0 {
			t.Errorf("Newview allocates %v per tree sweep in steady state, want 0", avg)
		}
	})
	// Newview called directly on an engine that has bound no tree.
	eng, tree, err := kernelEngine(phylo.NewJC69(), phylo.SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	eng.EvaluateRoot(tree) // sizes the buffers, binds nothing
	node := kernelInternalNode(tree)
	if avg := testing.AllocsPerRun(100, func() { eng.Newview(node) }); avg != 0 {
		t.Errorf("Newview allocates %v per call on an unbound engine, want 0", avg)
	}
}

func TestEvaluateRootAllocationFree(t *testing.T) {
	forEachKernelFixture(t, func(t *testing.T, eng *phylo.Engine, tree *phylo.Tree) {
		if avg := testing.AllocsPerRun(100, func() { eng.EvaluateRoot(tree) }); avg != 0 {
			t.Errorf("EvaluateRoot allocates %v per call in steady state, want 0", avg)
		}
	})
}

// TestMakenewzEdgeAllocationFree covers the sum-table build and the Newton
// passes over it, on every edge.
func TestMakenewzEdgeAllocationFree(t *testing.T) {
	forEachKernelFixture(t, func(t *testing.T, eng *phylo.Engine, tree *phylo.Tree) {
		edges := tree.Edges()
		if avg := testing.AllocsPerRun(5, func() {
			for _, v := range edges {
				eng.MakenewzEdge(v)
			}
		}); avg != 0 {
			t.Errorf("MakenewzEdge allocates %v per tree sweep in steady state, want 0", avg)
		}
	})
}

// TestIncrementalEvaluationAllocationFree guards the new invalidation path:
// a steady-state invalidate-one-edge + re-evaluate cycle (the inner loop of
// the incremental tree search) must not allocate either.
func TestIncrementalEvaluationAllocationFree(t *testing.T) {
	eng, tree := allocEngine(t)
	edge := tree.Edges()[len(tree.Edges())/3]
	eng.LogLikelihood(tree)
	lengths := edgeFlipLengths
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		edge.Length = lengths[i%2]
		i++
		eng.InvalidateEdge(edge)
		eng.LogLikelihood(tree)
	}); avg != 0 {
		t.Errorf("incremental invalidate+evaluate allocates %v per cycle, want 0", avg)
	}
	// The same cycle through the branch optimizer, from a collapsed cherry:
	// Newton starts from the clamped length, and the acceptance pass scores the
	// old one, whose clamp the patterns of likelihood zero take.
	a, b := collapseCherry(tree)
	if avg := testing.AllocsPerRun(50, func() {
		a.Length, b.Length = 0, 0
		eng.InvalidateEdge(a)
		eng.InvalidateEdge(b)
		eng.OptimizeBranch(tree, a)
	}); avg != 0 {
		t.Errorf("optimizing a zero-length branch allocates %v per cycle, want 0", avg)
	}
}

// TestSearchAllocationFree pins the ENTIRE search path — move generation,
// topology snapshot/restore, NNI apply/revert, branch smoothing, tree
// validation and the per-node transition matrices — at zero allocations per
// full search once the engine's scratch is warm. This is the headline guard
// of the 39k-allocs-per-search fix: before the arena scratch and SearchInto,
// every search allocated ~39,000 times.
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
	// One warm search grows every scratch buffer (AllocsPerRun adds one more
	// warmup of its own); the per-node blocks were sized by NewEngine.
	run()
	if avg := testing.AllocsPerRun(3, run); avg != 0 {
		t.Errorf("full NNI search allocates %v per run in steady state, want 0", avg)
	}
}

// TestNewEngineBytes holds what NewEngine allocates on a simulated 1,000 ×
// 250 alignment: the down vectors are kept for the inner nodes only (tips are
// read through lookup tables) and there are no site-repeat rows, which puts
// the Gamma4 engine at ≈103 MB and the single-rate one at ≈30 MB. With the
// repeat rows they took 106.1 and 33.4 MB; with a row for every node as well,
// 145.2 and 48.5 MB.
func TestNewEngineBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1,000-taxon engines; skipped in -short mode")
	}
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 1000, Length: 250, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		rates phylo.RateCategories
		maxMB float64
	}{
		{"single", phylo.SingleRate(), 32},
		{"gamma4", benchGamma4(t), 105},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := phylo.NewEngine(data, phylo.NewJC69(), c.rates)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(eng)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > c.maxMB {
			t.Errorf("%s: NewEngine allocated %.1f MB on %d patterns, want at most %.0f", c.name, mb, data.NumPatterns(), c.maxMB)
		} else {
			t.Logf("%s: NewEngine allocated %.1f MB on %d patterns", c.name, mb, data.NumPatterns())
		}
	}
}
