package phylo

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// partitionExecutor is the hostile ParallelFor: it cuts [0, n) at one to four
// random points (so a chunk may be empty), starts the chunks in reverse
// order, each on its own goroutine, and returns when all are done. split
// counts the loops it was given.
func partitionExecutor(rng *rand.Rand, split *int) ParallelFor {
	return func(n int, body func(lo, hi int)) {
		cuts := []int{0, n}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			cuts = append(cuts, rng.Intn(n+1))
		}
		slices.Sort(cuts)
		*split++
		var wg sync.WaitGroup
		for i := len(cuts) - 1; i > 0; i-- {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(cuts[i-1], cuts[i])
		}
		wg.Wait()
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameFloat)
}

// kernelCase is one engine configuration the kernel property tests run:
// a model, rates, the alignment to simulate and whether the start tree gets a
// cherry of two zero-length branches.
type kernelCase struct {
	name       string
	model      Model
	rates      RateCategories
	sim        SimulateOptions
	zeroCherry bool
}

// kernelCases are the four model × rate combinations, a 240-taxon tree deep
// enough to rescale, and a zero-length cherry, whose disagreeing patterns have
// likelihood zero and take the clamp of the Newton bodies.
func kernelCases(t *testing.T) []kernelCase {
	var cases []kernelCase
	for i, ec := range equivalenceCases() {
		cases = append(cases, kernelCase{name: ec.name, model: ec.model(t), rates: ec.rates(t),
			sim: SimulateOptions{Taxa: 9 + i, Length: 160, Seed: int64(3 + i), MeanBranchLength: 0.12}})
	}
	deep := equivalenceCases()[3]
	return append(cases,
		kernelCase{name: "rescaled_240_taxa", model: deep.model(t), rates: deep.rates(t),
			sim: SimulateOptions{Taxa: 240, Length: 40, Seed: 9, MeanBranchLength: 0.2}},
		kernelCase{name: "zero_cherry", model: deep.model(t), rates: deep.rates(t), zeroCherry: true,
			sim: SimulateOptions{Taxa: 8, Length: 200, Seed: 9, MeanBranchLength: 0.2}})
}

// sameSumPasses holds got's passes over the sum table of the edge above gv to
// want's over the edge above v, bit for bit: the first pass at lengths[0],
// which builds the table (compared too), a Newton pass at each other length,
// an acceptance pass at each length and the next, and MakenewzEdge. It
// reports whether a pattern took the clamp (an acceptance likelihood below
// −700).
func sameSumPasses(t *testing.T, got, want *Engine, gv, v *Node, lengths []float64) (clamped bool) {
	t.Helper()
	g1, g2 := got.firstPass(gv, lengths[0])
	w1, w2 := want.firstPass(v, lengths[0])
	if !sameFloats(got.sumTab, want.sumTab) || !sameFloats(got.sumScale, want.sumScale) {
		t.Errorf("edge above node %d: sum tables differ", v.ID)
	}
	for k, b := range lengths {
		if k > 0 {
			g1, g2 = got.newtonPass(b)
			w1, w2 = want.newtonPass(b)
		}
		c := lengths[(k+1)%len(lengths)]
		gb, ga := got.acceptPass(b, c)
		wb, wa := want.acceptPass(b, c)
		if !sameFloat(g1, w1) || !sameFloat(g2, w2) || !sameFloat(gb, wb) || !sameFloat(ga, wa) {
			t.Errorf("edge above node %d: derivatives at %g (%v, %v), logL at %g and %g (%v, %v); want (%v, %v), (%v, %v)",
				v.ID, b, g1, g2, b, c, gb, ga, w1, w2, wb, wa)
		}
		clamped = clamped || wb < -700
	}
	if a, b := got.MakenewzEdge(gv), want.MakenewzEdge(v); !sameFloat(a, b) {
		t.Errorf("MakenewzEdge(node %d) = %v, want %v", v.ID, a, b)
	}
	return clamped
}

// build returns a serial engine over data and the case's start tree.
func (c kernelCase) build(t *testing.T, data *PatternAlignment) (*Engine, *Tree) {
	t.Helper()
	eng, err := NewEngine(data, c.model, c.rates)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if c.zeroCherry {
		for _, n := range tree.Nodes {
			if !n.IsTip() && n.Parent != nil && n.Children[0].IsTip() && n.Children[1].IsTip() {
				n.Children[0].Length, n.Children[1].Length = 0, 0
				break
			}
		}
	}
	return eng, tree
}

// TestAnyPartitionSameBits holds every per-pattern loop the engine offers its
// executor — newview, the out-vector newview, evaluate, the first Newton pass
// with the sum table it builds, the other Newton passes and the acceptance
// pass — to the serial engine bit for bit under partitionExecutor: each
// conditional vector and scaler, the likelihood, every edge's sum table,
// Newton and acceptance sums and optimized length (sameSumPasses), and a
// whole search. The cases are the four model × rate combinations, a 240-taxon
// tree deep enough to rescale, and a cherry of two zero-length branches, whose
// disagreeing patterns have likelihood zero and take the clamp of the Newton
// body. Run under -race it is also what shows the bodies write only their own
// patterns' slots.
func TestAnyPartitionSameBits(t *testing.T) {
	for ci, c := range kernelCases(t) {
		t.Run(c.name, func(t *testing.T) {
			data := simulatedPatterns(t, c.sim)
			split := 0
			build := func(shared bool) (*Engine, *Tree) {
				eng, tree := c.build(t, data)
				if shared {
					eng.offer = 0
					eng.SetParallel(partitionExecutor(rand.New(rand.NewSource(int64(ci))), &split))
				}
				return eng, tree
			}
			want, wantTree := build(false)
			got, gotTree := build(true)
			// wasSplit reports whether the executor cut a loop since the last
			// call: each phase below must have reached it.
			seen := 0
			wasSplit := func(loop string) {
				t.Helper()
				if split == seen {
					t.Errorf("no %s loop was split; the phase compares nothing", loop)
				}
				seen = split
			}

			if a, b := got.LogLikelihood(gotTree), want.LogLikelihood(wantTree); !sameFloat(a, b) {
				t.Errorf("LogLikelihood %v partitioned, %v serial", a, b)
			}
			wasSplit("newview")
			got.Refresh(gotTree)
			want.Refresh(wantTree)
			wasSplit("out-vector")
			for _, v := range []struct {
				name string
				a, b []float64
			}{
				{"down vectors", got.clvDown, want.clvDown}, {"down scalers", got.sclDown, want.sclDown},
				{"out vectors", got.clvOut, want.clvOut}, {"out scalers", got.sclOut, want.sclOut},
			} {
				if !sameFloats(v.a, v.b) {
					t.Errorf("%s differ after Refresh", v.name)
				}
			}
			if a, b := got.EvaluateRoot(gotTree), want.EvaluateRoot(wantTree); !sameFloat(a, b) {
				t.Errorf("EvaluateRoot %v partitioned, %v serial", a, b)
			}
			wasSplit("evaluate")

			// The deep tree has 478 edges and a goroutine per chunk per loop:
			// every sixteenth edge and a one-round search keep it to seconds
			// under the race detector.
			step, opts := 1, SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01}
			if c.sim.Taxa > 50 {
				step, opts = 16, SearchOptions{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.01}
			}
			clamped := false
			for i, v := range wantTree.Edges() {
				if i%step != 0 {
					continue
				}
				lengths := []float64{v.Length, MinBranchLength, 0.37}
				clamped = sameSumPasses(t, got, want, gotTree.Edges()[i], v, lengths) || clamped
			}
			wasSplit("sum-table or Newton")
			if c.zeroCherry && !clamped {
				t.Error("no pattern took the clamp; the zero-likelihood case covers nothing")
			}
			if c.name == "rescaled_240_taxa" && !slices.ContainsFunc(want.sclDown, func(s float64) bool { return s != 0 }) {
				t.Error("the deep tree never rescaled; the case covers nothing")
			}

			// A whole search, from the same start tree on fresh engines.
			var gotRes, wantRes SearchResult
			got, gotTree = build(true)
			want, wantTree = build(false)
			if err := got.SearchInto(context.Background(), gotTree, opts, &gotRes); err != nil {
				t.Fatal(err)
			}
			if err := want.SearchInto(context.Background(), wantTree, opts, &wantRes); err != nil {
				t.Fatal(err)
			}
			wasSplit("search")
			if !sameFloat(gotRes.LogLikelihood, wantRes.LogLikelihood) || gotRes.NNIAccepted != wantRes.NNIAccepted ||
				!bytes.Equal(AppendTreeBinary(nil, gotRes.Tree), AppendTreeBinary(nil, wantRes.Tree)) {
				t.Errorf("search: logL %v (%d moves) partitioned, %v (%d moves) serial, or the trees differ",
					gotRes.LogLikelihood, gotRes.NNIAccepted, wantRes.LogLikelihood, wantRes.NNIAccepted)
			}
			if math.IsNaN(wantRes.LogLikelihood) {
				t.Error("the serial search returned NaN")
			}
		})
	}
}

// TestCategoryKernelsMatchGeneral holds the loop bodies NewEngine picks for
// one and four rate categories (newviewBody1, sumTableBody1, newtonBody1,
// acceptBody1; newviewBody4 with its three loops, sumTableBody4, newtonBody4,
// acceptBody4) to the loop-form reference of reference_test.go bit for bit, on
// serial engines, where a body's first share is the whole range and the
// reference stores every term: every down and out vector and scaler after
// Refresh, every edge's sum table and scalers as the first pass builds them,
// the Newton sums at four lengths, the acceptance sums at each length and the
// next, the optimized length (sameSumPasses), and a whole search.
// TestAnyPartitionSameBits holds the shares past pattern 0 to the first.
func TestCategoryKernelsMatchGeneral(t *testing.T) {
	for _, c := range kernelCases(t) {
		t.Run(c.name, func(t *testing.T) {
			data := simulatedPatterns(t, c.sim)
			build := func(general bool) (*Engine, *Tree) {
				eng, tree := c.build(t, data)
				if general {
					eng.useGeneralBodies()
				}
				return eng, tree
			}
			got, gotTree := build(false)
			want, wantTree := build(true)
			got.Refresh(gotTree)
			want.Refresh(wantTree)
			if !sameFloats(got.clvDown, want.clvDown) || !sameFloats(got.sclDown, want.sclDown) ||
				!sameFloats(got.clvOut, want.clvOut) || !sameFloats(got.sclOut, want.sclOut) {
				t.Error("Refresh: the conditional vectors or their scalers differ")
			}
			clamped := false
			for i, v := range wantTree.Edges() {
				lengths := []float64{v.Length, MinBranchLength, 0.37, MaxBranchLength}
				clamped = sameSumPasses(t, got, want, gotTree.Edges()[i], v, lengths) || clamped
			}
			if c.zeroCherry && !clamped {
				t.Error("no pattern took the clamp; the zero-likelihood case covers nothing")
			}

			var gotRes, wantRes SearchResult
			got, gotTree = build(false)
			want, wantTree = build(true)
			opts := SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01}
			if err := got.SearchInto(context.Background(), gotTree, opts, &gotRes); err != nil {
				t.Fatal(err)
			}
			if err := want.SearchInto(context.Background(), wantTree, opts, &wantRes); err != nil {
				t.Fatal(err)
			}
			if !sameFloat(gotRes.LogLikelihood, wantRes.LogLikelihood) || gotRes.NNIAccepted != wantRes.NNIAccepted ||
				!bytes.Equal(AppendTreeBinary(nil, gotRes.Tree), AppendTreeBinary(nil, wantRes.Tree)) {
				t.Errorf("search: logL %v (%d moves) specialised, %v (%d moves) general, or the trees differ",
					gotRes.LogLikelihood, gotRes.NNIAccepted, wantRes.LogLikelihood, wantRes.NNIAccepted)
			}
		})
	}
}
