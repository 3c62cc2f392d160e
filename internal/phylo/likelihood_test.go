package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// twoTaxonData builds a pattern alignment for exactly two sequences.
func twoTaxonData(t *testing.T, seqA, seqB string) *PatternAlignment {
	t.Helper()
	aln := &Alignment{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte(seqA), []byte(seqB)}}
	pa, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

// twoTaxonTree builds the minimal tree a--root--b with the given branch
// lengths.
func twoTaxonTree(la, lb float64) *Tree {
	a := &Node{ID: 0, Name: "a", Taxon: 0, Length: la}
	b := &Node{ID: 1, Name: "b", Taxon: 1, Length: lb}
	root := &Node{ID: 2, Taxon: -1, Children: []*Node{a, b}}
	a.Parent, b.Parent = root, root
	return &Tree{Root: root, Nodes: []*Node{a, b, root}, Taxa: []string{"a", "b"}}
}

// jc69TwoTaxonLogLik is the closed-form JC69 log-likelihood of two sequences
// separated by total branch length d, with nSame identical and nDiff
// differing sites.
func jc69TwoTaxonLogLik(d float64, nSame, nDiff int) float64 {
	e := math.Exp(-4.0 / 3.0 * d)
	pSame := 0.25 * (0.25 + 0.75*e)
	pDiff := 0.25 * (0.25 - 0.25*e)
	return float64(nSame)*math.Log(pSame) + float64(nDiff)*math.Log(pDiff)
}

func TestTwoTaxonLikelihoodMatchesClosedForm(t *testing.T) {
	// 10 sites, 3 differences.
	data := twoTaxonData(t, "AAAAAAAAAA", "AAAAAAACGT")
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0.05, 0.2, 0.6, 1.5} {
		tree := twoTaxonTree(d/2, d/2)
		got := eng.LogLikelihood(tree)
		want := jc69TwoTaxonLogLik(d, 7, 3)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("logL(d=%v) = %v, want %v", d, got, want)
		}
	}
}

func TestPulleyPrinciple(t *testing.T) {
	// For reversible models, only the sum of the two root branch lengths
	// matters (Felsenstein's pulley principle).
	data := twoTaxonData(t, "ACGTACGTACGTACGT", "ACGAACGTACTTACGG")
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	ref := eng.LogLikelihood(twoTaxonTree(0.15, 0.15))
	for _, split := range [][2]float64{{0.3, 0.0}, {0.0, 0.3}, {0.25, 0.05}, {0.1, 0.2}} {
		got := eng.LogLikelihood(twoTaxonTree(split[0], split[1]))
		if math.Abs(got-ref) > 1e-9 {
			t.Errorf("pulley violated for split %v: %v vs %v", split, got, ref)
		}
	}
}

// bruteForceLogLik computes the likelihood of a 4-taxon tree by explicitly
// summing over all internal-node state assignments — an independent oracle
// for the pruning algorithm.
func bruteForceLogLik(t *testing.T, tree *Tree, data *PatternAlignment, model Model) float64 {
	t.Helper()
	freqs := model.Frequencies()
	// Transition matrix per edge node.
	pm := map[int]Matrix{}
	for _, e := range tree.Edges() {
		pm[e.ID] = model.Transition(e.Length)
	}
	var internals []*Node
	PostOrder(tree.Root, func(n *Node) {
		if !n.IsTip() {
			internals = append(internals, n)
		}
	})
	total := 0.0
	for pat := 0; pat < data.NumPatterns(); pat++ {
		var patL float64
		assign := make(map[int]int, len(internals))
		// Enumerate all 4^len(internals) assignments.
		var rec func(k int)
		rec = func(k int) {
			if k == len(internals) {
				// Probability of this assignment.
				p := freqs[assign[tree.Root.ID]]
				ok := true
				PostOrder(tree.Root, func(n *Node) {
					if n.Parent == nil || !ok {
						return
					}
					parentState := assign[n.Parent.ID]
					if n.IsTip() {
						bits := data.States[n.Taxon][pat]
						var tipP float64
						for s := 0; s < NumStates; s++ {
							if bits&(1<<uint(s)) != 0 {
								tipP += pm[n.ID][parentState][s]
							}
						}
						p *= tipP
					} else {
						p *= pm[n.ID][parentState][assign[n.ID]]
					}
				})
				patL += p
				return
			}
			for s := 0; s < NumStates; s++ {
				assign[internals[k].ID] = s
				rec(k + 1)
			}
		}
		rec(0)
		total += data.Weights[pat] * math.Log(patL)
	}
	return total
}

func TestPruningMatchesBruteForce(t *testing.T) {
	tree, err := ParseNewick("((A:0.12,B:0.34):0.21,(C:0.08,D:0.45):0.17);")
	if err != nil {
		t.Fatal(err)
	}
	aln := &Alignment{
		Names: []string{"A", "B", "C", "D"},
		Seqs: [][]byte{
			[]byte("ACGTACGTAAGGCTTA"),
			[]byte("ACGTACCTAAGACTTA"),
			[]byte("ACATACGTTAGGCTAA"),
			[]byte("GCATACGTTAGGCTAC"),
		},
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{NewJC69()}
	if g, err := NewGTR([6]float64{1.5, 3, 0.7, 1.2, 4, 1}, Frequencies{0.28, 0.22, 0.24, 0.26}); err == nil {
		models = append(models, g)
	}
	for _, m := range models {
		eng, err := NewEngine(data, m, SingleRate())
		if err != nil {
			t.Fatal(err)
		}
		got := eng.LogLikelihood(tree)
		want := bruteForceLogLik(t, tree, data, m)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("%s: pruning logL = %v, brute force = %v", m.Name(), got, want)
		}
	}
}

func TestLikelihoodWithAmbiguityAndGaps(t *testing.T) {
	// Gaps/N should never increase information; a fully gapped column has
	// likelihood 1 (log contribution 0) under JC.
	dataFull := twoTaxonData(t, "ACGT", "ACGT")
	dataGap := twoTaxonData(t, "ACGT----", "ACGTNNNN")
	engFull, _ := NewEngine(dataFull, NewJC69(), SingleRate())
	engGap, _ := NewEngine(dataGap, NewJC69(), SingleRate())
	d := 0.2
	lFull := engFull.LogLikelihood(twoTaxonTree(d/2, d/2))
	lGap := engGap.LogLikelihood(twoTaxonTree(d/2, d/2))
	// The gap columns contribute sum over states of 0.25 * 1 * 1 = 1 each,
	// i.e. log 1 = 0, so both likelihoods must be identical.
	if math.Abs(lFull-lGap) > 1e-9 {
		t.Errorf("fully ambiguous columns should contribute log(1): %v vs %v", lFull, lGap)
	}
}

func TestGammaRatesChangeLikelihood(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 6, Length: 300, Seed: 2, MeanBranchLength: 0.15})
	data, _ := Compress(aln)
	tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(1)))
	single, _ := NewEngine(data, NewJC69(), SingleRate())
	gammaRates, err := DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	gamma, _ := NewEngine(data, NewJC69(), gammaRates)
	l1 := single.LogLikelihood(tree)
	l2 := gamma.LogLikelihood(tree)
	if math.IsNaN(l1) || math.IsNaN(l2) || math.IsInf(l1, 0) || math.IsInf(l2, 0) {
		t.Fatalf("non-finite likelihoods: %v %v", l1, l2)
	}
	if l1 == l2 {
		t.Errorf("gamma rate heterogeneity should change the likelihood")
	}
}

func TestScalingPreventsUnderflowOnLargeTrees(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 42, Length: 1167, Seed: 42, MeanBranchLength: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := Compress(aln)
	tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(7)))
	// Long branches + many taxa force per-pattern likelihoods far below
	// float64's underflow threshold without rescaling.
	for _, e := range tree.Edges() {
		e.Length = 1.5
	}
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	ll := eng.LogLikelihood(tree)
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("likelihood underflowed: %v", ll)
	}
	if ll >= 0 {
		t.Errorf("log-likelihood should be negative, got %v", ll)
	}
}

func TestMakenewzRecoversJCDistance(t *testing.T) {
	// With 100 sites and 20 observed differences the ML distance under JC69
	// has the closed form -3/4 ln(1 - 4/3 * 0.2).
	same := strings.Repeat("A", 80)
	diff := strings.Repeat("C", 20)
	data := twoTaxonData(t, same+strings.Repeat("A", 20), same+diff)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	tree := twoTaxonTree(0.05, MinBranchLength) // poor starting point
	ll := eng.OptimizeBranch(tree, tree.Root.Children[0])
	got := tree.Root.Children[0].Length + tree.Root.Children[1].Length
	want := -0.75 * math.Log(1-4.0/3.0*0.2)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("optimized distance = %v, want %v", got, want)
	}
	// And the likelihood at the optimum must match the closed form.
	wantLL := jc69TwoTaxonLogLik(want, 80, 20)
	if math.Abs(ll-wantLL) > 1e-4 {
		t.Errorf("optimized logL = %v, want %v", ll, wantLL)
	}
}

func TestOptimizeAllBranchesImprovesLikelihood(t *testing.T) {
	trueTree, aln, err := Simulate(SimulateOptions{Taxa: 10, Length: 500, Seed: 11, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := Compress(aln)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	work := trueTree.Clone()
	// Perturb the branch lengths badly.
	for _, e := range work.Edges() {
		e.Length = 0.9
	}
	before := eng.LogLikelihood(work)
	after := eng.OptimizeAllBranches(work, 6)
	if after <= before {
		t.Errorf("branch optimization did not improve the likelihood: %v -> %v", before, after)
	}
	// Optimized branch lengths should be near the generating mean (0.04-0.12
	// per branch), certainly far below the 0.9 starting value.
	var mean float64
	for _, e := range work.Edges() {
		mean += e.Length
	}
	mean /= float64(len(work.Edges()))
	if mean > 0.4 {
		t.Errorf("optimized mean branch length %v still near the perturbed value", mean)
	}
	// Stats should reflect kernel activity.
	if eng.Stats.NewviewCalls == 0 || eng.Stats.MakenewzCalls == 0 || eng.Stats.EvaluateCalls == 0 {
		t.Errorf("kernel call counters not maintained: %+v", eng.Stats)
	}
}

func TestParallelForProducesIdenticalLikelihood(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 12, Length: 800, Seed: 5, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(2)))
	serial, _ := NewEngine(data, NewJC69(), SingleRate())
	want := serial.LogLikelihood(tree)

	parallel, _ := NewEngine(data, NewJC69(), SingleRate())
	// A chunked (but still sequential) executor must give bit-identical
	// results; the native runtime's concurrent executor is exercised in
	// package native.
	parallel.SetParallel(func(n int, body func(lo, hi int)) {
		chunk := 37
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	})
	got := parallel.LogLikelihood(tree)
	if got != want {
		t.Errorf("chunked executor changed the likelihood: %v vs %v", got, want)
	}
	// Restoring serial execution must also work.
	parallel.SetParallel(nil)
	if parallel.LogLikelihood(tree) != want {
		t.Errorf("resetting the executor changed the likelihood")
	}
}

func TestEngineValidation(t *testing.T) {
	data := twoTaxonData(t, "ACGT", "ACGT")
	if _, err := NewEngine(nil, NewJC69(), SingleRate()); err == nil {
		t.Errorf("nil data should be rejected")
	}
	if _, err := NewEngine(data, nil, SingleRate()); err == nil {
		t.Errorf("nil model should be rejected")
	}
	eng, err := NewEngine(data, NewJC69(), RateCategories{})
	if err != nil {
		t.Fatalf("empty rate categories should default to a single rate: %v", err)
	}
	if eng.Rates.Count() != 1 {
		t.Errorf("rates = %v", eng.Rates)
	}
	if eng.NumPatterns() != data.NumPatterns() {
		t.Errorf("NumPatterns mismatch")
	}
	// The kernel bodies are written for one and four categories; any other
	// count is refused by name.
	for k := 1; k <= 5; k++ {
		rates, err := DiscreteGamma(0.5, k)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewEngine(data, NewJC69(), rates)
		if k == 1 || k == 4 {
			if err != nil {
				t.Errorf("%d rate categories refused: %v", k, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("not %d", k)) {
			t.Errorf("%d rate categories: err = %v, want a refusal naming the count", k, err)
		}
	}
}

// TestAcceptanceSidesMatchBitForBit pins the contract optimizeEdge's one
// acceptance pass rests on: its two sides compute one length's likelihood
// alike, so acceptPass(b, b) returns before == after bit for bit, and
// swapping its lengths swaps its results, on tip and inner edges, at the
// edge's own length, at the bounds, and below MinBranchLength (where the
// unclamped old length is "before"). Each call is one DerivEvals pass.
func TestAcceptanceSidesMatchBitForBit(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			_, aln, err := Simulate(SimulateOptions{Taxa: 11, Length: 300, Seed: 23, MeanBranchLength: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			data, _ := Compress(aln)
			eng, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(4)))
			eng.Refresh(tree)
			var tips, inner int
			for _, v := range tree.Edges() {
				if v.IsTip() {
					tips++
				} else {
					inner++
				}
				eng.firstPass(v, v.Length) // builds the edge's sum table
				for _, b := range []float64{v.Length, 0, 1e-9, MinBranchLength, 0.37, MaxBranchLength} {
					passes := eng.Stats.DerivEvals
					before, after := eng.acceptPass(b, b)
					if !sameFloat(before, after) {
						t.Errorf("edge above node %d at length %g: before %v != after %v", v.ID, b, before, after)
					}
					x, y := eng.acceptPass(b, 0.05)
					if y2, x2 := eng.acceptPass(0.05, b); !sameFloat(x, x2) || !sameFloat(y, y2) || !sameFloat(x, before) {
						t.Errorf("edge above node %d at lengths %g, 0.05: (%v, %v), swapped (%v, %v)", v.ID, b, x, y, y2, x2)
					}
					if n := eng.Stats.DerivEvals - passes; n != 3 {
						t.Errorf("three passes counted as %d DerivEvals", n)
					}
				}
			}
			if tips == 0 || inner == 0 {
				t.Fatalf("covered %d tip and %d inner edges", tips, inner)
			}
		})
	}
}

// TestOptimizeEdgePinnedAtBoundCostsOnePass: two identical sequences want
// distance 0, so Newton on an edge already at MinBranchLength steps below the
// bound, is clamped back onto it and returns the length it was given. There
// is nothing to accept — optimizeEdge must spend no acceptance pass on it,
// nor any pass but the first, and must leave the length and every
// invalidation mark alone.
func TestOptimizeEdgePinnedAtBoundCostsOnePass(t *testing.T) {
	data := twoTaxonData(t, "ACGTACGTAC", "ACGTACGTAC")
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	tree := twoTaxonTree(MinBranchLength, 0.05)
	pinned := tree.Nodes[0]
	ll := eng.LogLikelihood(tree)
	eng.ensureOut(tree, pinned)

	accepts := 0
	body := eng.accFn
	eng.accFn = func(lo, hi int) { accepts++; body(lo, hi) }
	derivs, epoch, anyDirty := eng.Stats.DerivEvals, eng.treeEpoch, eng.anyDirty
	dirty := append([]bool(nil), eng.downDirty...)
	stamps := append([]uint64(nil), eng.outEpoch...)
	if eng.optimizeEdge(tree, pinned) {
		t.Error("a pinned edge reported a material change")
	}
	if accepts != 0 {
		t.Errorf("a pinned edge ran the acceptance body %d times", accepts)
	}
	if got := eng.Stats.DerivEvals - derivs; got != 1 {
		t.Errorf("pinned edge cost %d passes over the sum table, want 1", got)
	}
	if pinned.Length != MinBranchLength {
		t.Errorf("pinned edge moved to %v", pinned.Length)
	}
	if eng.treeEpoch != epoch || eng.anyDirty != anyDirty || !slices.Equal(eng.downDirty, dirty) || !slices.Equal(eng.outEpoch, stamps) {
		t.Error("a visit that changed nothing moved the engine's invalidation state")
	}
	if got := eng.LogLikelihood(tree); !sameFloat(got, ll) {
		t.Errorf("logL %v after the visit, %v before", got, ll)
	}
}

// TestMakenewzFiniteOnZeroLikelihoodPatterns: with both branches of a cherry
// at length 0, every pattern its two tips disagree on has likelihood exactly
// zero whatever the length of any OTHER edge, so on those edges the clamps of
// the Newton and acceptance bodies are taken. Such a pattern has no slope —
// it contributes no derivative, and its clamped log-likelihood to the
// acceptance pass — so Newton must still return a length inside the bounds
// and the optimizer a finite likelihood.
func TestMakenewzFiniteOnZeroLikelihoodPatterns(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			_, aln, err := Simulate(SimulateOptions{Taxa: 8, Length: 200, Seed: 9, MeanBranchLength: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			data, _ := Compress(aln)
			eng, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(2)))
			var cherry *Node
			for _, n := range tree.Nodes {
				if !n.IsTip() && n.Parent != nil && n.Children[0].IsTip() && n.Children[1].IsTip() {
					cherry = n
					break
				}
			}
			a, b := cherry.Children[0], cherry.Children[1]
			if slices.Equal(data.States[a.Taxon], data.States[b.Taxon]) {
				t.Fatal("the cherry's tips must disagree on some pattern")
			}
			a.Length, b.Length = 0, 0
			eng.Refresh(tree)
			eng.firstPass(cherry, cherry.Length) // builds the edge's sum table
			if ll, _ := eng.acceptPass(cherry.Length, 0.1); !(ll < -700) {
				t.Fatalf("logL %v: no pattern took the clamp", ll)
			}
			inBounds := func(what string, v float64) {
				t.Helper()
				if !(v >= MinBranchLength && v <= MaxBranchLength) {
					t.Errorf("%s = %v, want a length in [%g, %g]", what, v, MinBranchLength, MaxBranchLength)
				}
			}
			for _, v := range tree.Edges() {
				if v == a || v == b {
					continue
				}
				inBounds(fmt.Sprintf("MakenewzEdge(node %d)", v.ID), eng.MakenewzEdge(v))
			}
			for _, v := range tree.Edges() {
				if v == a || v == b {
					continue
				}
				if ll := eng.OptimizeBranch(tree, v); math.IsNaN(ll) || math.IsInf(ll, 0) {
					t.Errorf("OptimizeBranch(node %d) returned logL %v", v.ID, ll)
				}
				inBounds(fmt.Sprintf("length of node %d after OptimizeBranch", v.ID), v.Length)
			}
		})
	}
}

// TestDegenerateInputsFiniteLogL pins the finiteness contract negInf() relies
// on (bootstrap.go): the evaluate kernel clamps per-site likelihoods to
// math.SmallestNonzeroFloat64, so even adversarial inputs — all-gap columns,
// minimum-length and extremely long branches — produce a finite
// log-likelihood, never -Inf or NaN.
func TestDegenerateInputsFiniteLogL(t *testing.T) {
	gapRow := func(n int) []byte {
		row := make([]byte, n)
		for i := range row {
			row[i] = '-'
		}
		return row
	}
	aln := &Alignment{
		Names: []string{"t1", "t2", "t3", "t4", "t5"},
		Seqs: [][]byte{
			[]byte("ACGTACGT----NNNN"),
			[]byte("ACGTTGCA----NNNN"),
			[]byte("ACGTCCAA----NNNN"),
			gapRow(16), // an entirely uninformative taxon
			[]byte("ACGTGGTT----NNNN"),
		},
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			eng, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			// Boundary branch lengths: clamp floor everywhere, then one
			// branch stretched to effective saturation.
			for _, n := range tree.Nodes {
				if n.Parent != nil {
					n.Length = MinBranchLength
				}
			}
			edges := tree.Edges()
			edges[len(edges)/2].Length = 50
			eng.InvalidateAll()
			logL := eng.LogLikelihood(tree)
			if math.IsInf(logL, 0) || math.IsNaN(logL) {
				t.Fatalf("degenerate input produced non-finite logL %v", logL)
			}
			if logL >= 0 {
				t.Fatalf("logL %v is not a log-probability", logL)
			}
		})
	}
}

// refSiteLikelihoods is the test-only reference the sum-table path is held
// to: the per-pattern likelihoods of the tree with the edge above v set to
// length b, formed the plain way — a P(b·rate) mat-vec per pattern and
// category — from nothing but Model.Transition and the engine's current
// down/out vectors. The per-pattern scalers are left out (they do not depend
// on b); refEdgeLogLik adds them.
func refSiteLikelihoods(e *Engine, v *Node, b float64) []float64 {
	ov := e.outVec(v.ID)
	site := make([]float64, e.nPat)
	for r, rate := range e.Rates.Rates {
		p := e.Model.Transition(b * rate)
		for i := range site {
			off := i*e.stride + r*NumStates
			for s := 0; s < NumStates; s++ {
				var sum float64
				for t := 0; t < NumStates; t++ {
					if v.IsTip() {
						if e.Data.States[v.Taxon][i]&(1<<uint(t)) != 0 {
							sum += p[s][t]
						}
					} else {
						sum += p[s][t] * e.downVec(v.ID)[off+t]
					}
				}
				site[i] += ov[off+s] * sum / float64(e.nCat)
			}
		}
	}
	return site
}

// refEdgeLogLik is the reference log-likelihood of the edge above v at length b.
func refEdgeLogLik(e *Engine, v *Node, b float64) float64 {
	var ll float64
	for i, l := range refSiteLikelihoods(e, v, b) {
		sc := e.outScaleVec(v.ID)[i]
		if !v.IsTip() {
			sc += e.downScaleVec(v.ID)[i]
		}
		ll += e.Data.Weights[i] * (math.Log(l) + sc)
	}
	return ll
}

// checkSumTableAgainstReference holds every edge of the tree, at the bounds
// and three lengths in between, to the reference: the acceptance pass's
// log-likelihoods within 1e-10 relative (each length on both of its sides),
// and the first pass's derivatives (the sum table rebuilt inside it at each
// length) within 1e-6 of central (five-point) differences of the reference's
// per-pattern likelihoods — L'/L and L”/L − (L'/L)², summed with the pattern
// weights; the tolerance is relative to the sums of the absolute per-pattern
// terms, so cancellation between patterns neither loosens nor tightens it. The differences are taken per
// pattern because differencing the total log-likelihood loses |logL|·ε to
// rounding. A second difference resolves L” against the ε-sized rounding of
// P's entries only with a step near 1e-3, so it is skipped at MinBranchLength,
// where the stencil (which cannot reach below length 0) is a million times
// narrower. It also asserts that no per-pattern likelihood reaches the
// non-positive clamp.
func checkSumTableAgainstReference(t *testing.T, eng *Engine, tree *Tree) {
	t.Helper()
	weights := eng.Data.Weights
	lengths := []float64{MinBranchLength, 1e-3, 0.1, 1, MaxBranchLength}
	for _, v := range tree.Edges() {
		for k, b := range lengths {
			d1, d2 := eng.firstPass(v, b)
			c := lengths[(k+1)%len(lengths)]
			before, after := eng.acceptPass(b, c)
			for _, ll := range []struct{ b, got float64 }{{b, before}, {c, after}} {
				if want := refEdgeLogLik(eng, v, ll.b); math.Abs(ll.got-want) > 1e-10*math.Abs(want) {
					t.Errorf("node %d b=%g: sum-table logL %v, reference %v", v.ID, ll.b, ll.got, want)
				}
			}
			ex := eng.fillExpTab(b)
			for i := 0; i < eng.nPat; i++ {
				var l0 float64
				for j, a := range eng.sumTab[i*eng.stride : (i+1)*eng.stride] {
					l0 += a * ex[j/NumStates*expRow+j%NumStates]
				}
				if l0 <= 0 {
					t.Fatalf("node %d b=%g pattern %d: l0 = %v reaches the clamp", v.ID, b, i, l0)
				}
			}
			h := math.Min(1e-3, b/2)
			var f [5][]float64
			for k := range f {
				f[k] = refSiteLikelihoods(eng, v, b+float64(k-2)*h)
			}
			var fd1, fd2, abs1, abs2 float64
			for i, l := range f[2] {
				g := (f[0][i] - 8*f[1][i] + 8*f[3][i] - f[4][i]) / (12 * h * l)
				c := (-f[0][i] + 16*f[1][i] - 30*l + 16*f[3][i] - f[4][i]) / (12 * h * h * l)
				fd1 += weights[i] * g
				fd2 += weights[i] * (c - g*g)
				abs1 += weights[i] * math.Abs(g)
				abs2 += weights[i] * (math.Abs(c) + g*g)
			}
			if math.Abs(d1-fd1) > 1e-6*math.Max(1, abs1) {
				t.Errorf("node %d b=%g: d1 %v, finite difference %v", v.ID, b, d1, fd1)
			}
			if b > MinBranchLength && math.Abs(d2-fd2) > 1e-6*math.Max(1, abs2) {
				t.Errorf("node %d b=%g: d2 %v, finite difference %v", v.ID, b, d2, fd2)
			}
		}
	}
}

// TestSumTableMatchesTransitionReference is the property test of the Newton
// path: on random trees, under every model family, on tip and inner edges,
// the eigenbasis sum table reproduces the reference formulation.
func TestSumTableMatchesTransitionReference(t *testing.T) {
	skewed, err := NewGTR([6]float64{0.4, 6, 0.9, 1.7, 9, 1}, Frequencies{0.45, 0.08, 0.12, 0.35})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name  string
		model Model
		rates RateCategories
	}{
		{"JC69_single", NewJC69(), SingleRate()},
		{"JC69_gamma4", NewJC69(), gamma},
		{"GTR_skewed_gamma4", skewed, gamma},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				_, aln, err := Simulate(SimulateOptions{Taxa: 9 + 3*int(seed), Length: 200, Seed: seed, MeanBranchLength: 0.12})
				if err != nil {
					t.Fatal(err)
				}
				data, _ := Compress(aln)
				eng, err := NewEngine(data, cfg.model, cfg.rates)
				if err != nil {
					t.Fatal(err)
				}
				tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(seed)))
				eng.Refresh(tree)
				checkSumTableAgainstReference(t, eng, tree)
			}
		})
	}
	t.Run("rescaled_240_taxa", func(t *testing.T) {
		_, aln, err := Simulate(SimulateOptions{Taxa: 240, Length: 40, Seed: 9, MeanBranchLength: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		data, _ := Compress(aln)
		eng, err := NewEngine(data, skewed, gamma)
		if err != nil {
			t.Fatal(err)
		}
		tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(3)))
		eng.Refresh(tree)
		rescaled := false
		for _, sc := range eng.sclDown {
			rescaled = rescaled || sc != 0
		}
		if !rescaled {
			t.Fatal("the deep tree never triggered rescaling; the case covers nothing")
		}
		checkSumTableAgainstReference(t, eng, tree)
	})
}

// refTipTable is the per-member loop fillTipTable replaced: for every
// category, state set and target state s, P[s][j] summed over the set's
// members j in ascending order, from +0.0.
func refTipTable(nCat int, p []float64) []float64 {
	dst := make([]float64, nCat*tipStates*NumStates)
	for r := 0; r < nCat; r++ {
		m := r * flatMatSize
		for set := 0; set < tipStates; set++ {
			for s := 0; s < NumStates; s++ {
				var sum float64
				for j := 0; j < NumStates; j++ {
					if set&(1<<j) != 0 {
						sum += p[m+s*NumStates+j]
					}
				}
				dst[(m+set)*NumStates+s] = sum
			}
		}
	}
	return dst
}

// TestTipTableMatchesPerMemberSums holds the subset fill of fillTipTable to
// the per-member loop bit for bit for one, three and four categories, on
// random matrices whose entries include -0.0, +0.0, subnormals and values of
// every magnitude a sum can round on.
func TestTipTableMatchesPerMemberSums(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	entry := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		case 3:
			return -math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		default:
			return (rng.Float64() - 0.25) * math.Pow(2, float64(rng.Intn(80)-40))
		}
	}
	negZero := false
	for _, nCat := range []int{1, 3, 4} {
		e := &Engine{nCat: nCat}
		dst := make([]float64, nCat*tipStates*NumStates)
		for trial := 0; trial < 500; trial++ {
			p := make([]float64, nCat*flatMatSize)
			for i := range p {
				p[i] = entry()
			}
			if trial%2 == 1 {
				for i := range dst {
					dst[i] = math.NaN() // the fill must write every entry
				}
			}
			e.fillTipTable(dst, p)
			want := refTipTable(nCat, p)
			for i := range want {
				if !sameFloat(dst[i], want[i]) {
					t.Fatalf("%d categories, trial %d: entry %d = %v (%#x), per-member sum %v (%#x)",
						nCat, trial, i, dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
				}
			}
			negZero = negZero || slices.ContainsFunc(p, func(v float64) bool { return v == 0 && math.Signbit(v) })
		}
	}
	if !negZero {
		t.Error("no matrix held -0.0; the signed-zero case covers nothing")
	}
}

// refRescale is the rule every newview body has to reproduce: the
// running maximum over a pattern's values in storage order (v > maxV from 0,
// so NaN and negatives never win), rescaling iff 0 < maxV < scalingThreshold.
// It returns the stored values and the pattern's log scaler, starting from the
// children's sum sc.
func refRescale(vals []float64, sc float64) ([]float64, float64) {
	out := slices.Clone(vals)
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 0 && maxV < scalingThreshold {
		inv := 1 / maxV
		for k := range out {
			out[k] *= inv
		}
		sc += math.Log(maxV)
	}
	return out, sc
}

// throughIdentity returns what the vector kernel reads from an inner side
// holding vals through identity matrices: per category and state s,
// Σ_j I[s][j]·v[j] in ascending j. That is v[s], except that a NaN or an
// infinity makes every other state of its category NaN (0·NaN, 0·Inf).
func throughIdentity(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for c := 0; c < len(vals); c += NumStates {
		v := vals[c : c+NumStates]
		for s := range v {
			var row [NumStates]float64
			row[s] = 1
			out[c+s] = row[0]*v[0] + row[1]*v[1] + row[2]*v[2] + row[3]*v[3]
		}
	}
	return out
}

// rescaleCase is one pattern of TestNewviewRescaleEdges: its stride values
// and whether refRescale rescales them.
type rescaleCase struct {
	name     string
	vals     []float64
	rescaled bool
}

// rescaleCases returns the rescale edge cases for patterns of stride values.
// They are written for 16 (four categories); at another stride each position
// k moves to k·stride/16, the same place in the pattern.
func rescaleCases(stride int) []rescaleCase {
	const T = scalingThreshold
	fill := func(v float64) []float64 {
		out := make([]float64, stride)
		for k := range out {
			out[k] = v
		}
		return out
	}
	with := func(vals []float64, at map[int]float64) []float64 {
		for k, v := range at {
			vals[k*stride/16] = v
		}
		return vals
	}
	small := func() []float64 { // distinct values in (0, T), largest first
		out := make([]float64, stride)
		for k := range out {
			out[k] = T * math.Pow(0.5, float64(k+1)) * 1e-3
		}
		return out
	}
	return []rescaleCase{
		{"all in (0, T)", small(), true},
		{"maximum exactly T", with(small(), map[int]float64{6: T}), false},
		{"just below T", with(small(), map[int]float64{6: math.Nextafter(T, 0)}), true},
		{"all zeros", fill(0), false},
		{"only value >= T in the last state", with(small(), map[int]float64{15: 0.5}), false},
		{"NaN among small values", with(small(), map[int]float64{0: math.NaN()}), true},
		{"NaN among ordinary values", with(fill(0.25), map[int]float64{3: math.NaN()}), false},
		{"+Inf among small values", with(small(), map[int]float64{9: math.Inf(1)}), false},
		{"tiny negatives among small values", with(small(), map[int]float64{0: -1e-300, 5: -4e-310, 15: -1e-95}), true},
		{"tiny negatives and zeros", with(fill(0), map[int]float64{2: -1e-300, 11: -5e-324}), false},
		{"ordinary values", fill(0.125), false},
	}
}

// TestNewviewRescaleEdges feeds newviewBody1 and newviewBody4 hand-written
// children whose products are exactly the values of each case, in four side
// orders: a tip table whose row for pattern i is case i times an inner vector
// of ones through identity matrices with a log scaler, the same the other way
// round, the case table times a table of ones (no log scaler: at four
// categories, newviewTips4), and, at four categories, two inner sides with log
// scalers, the left holding the cases (through the identity, where 0·NaN and
// 0·Inf spread NaN over the category: throughIdentity). It compares dst and
// scale bit for bit with refRescale, from the sides' log scalers added to 0.
// Every case is one pattern of the same call, so a flag that leaked from one
// pattern into the next would show too. Two reformulations of any body's
// threshold test fail this test and no other: v > T in place of v >= T (the
// "exactly T" case) and a flag kept by small = small && v < T (the NaN case,
// which it leaves unscaled).
func TestNewviewRescaleEdges(t *testing.T) {
	for _, body := range []struct {
		name string
		nCat int
		fn   func(e *Engine, lo, hi int)
	}{
		{"newviewBody1", 1, (*Engine).newviewBody1},
		{"newviewBody4", 4, (*Engine).newviewBody4},
	} {
		nCat, stride := body.nCat, body.nCat*NumStates
		cases := rescaleCases(stride)
		n := len(cases)
		if n > tipStates {
			t.Fatalf("%d cases, the tip table holds %d rows", n, tipStates)
		}
		tab := make([]float64, nCat*tipStates*NumStates)
		states := make([]uint8, n)
		for i, c := range cases {
			states[i] = uint8(i)
			for r := 0; r < nCat; r++ {
				copy(tab[(r*flatMatSize+i)*NumStates:], c.vals[r*NumStates:(r+1)*NumStates])
			}
		}
		ident := make([]float64, nCat*flatMatSize)
		for r := 0; r < nCat; r++ {
			for s := 0; s < NumStates; s++ {
				ident[r*flatMatSize+s*NumStates+s] = 1
			}
		}
		childScale := make([]float64, n)
		for i := range childScale {
			childScale[i] = 1.5 * float64(i+1)
		}
		table := kernelSide{states: states, tab: tab}
		ones := make([]float64, max(n*stride, len(tab)))
		for k := range ones {
			ones[k] = 1
		}
		inner := kernelSide{v: ones, scale: childScale, p: ident}
		onesTable := kernelSide{states: states, tab: ones[:len(tab)]}
		vals, rightScale := make([]float64, 0, n*stride), make([]float64, n)
		for i, c := range cases {
			vals = append(vals, c.vals...)
			rightScale[i] = 0.25 * float64(i+1)
		}
		holder := kernelSide{v: vals, scale: childScale, p: ident}
		for _, order := range []struct {
			name    string
			l, r    kernelSide
			through func([]float64) []float64 // what the side holding the cases makes of them
		}{
			{"table×inner", table, inner, slices.Clone[[]float64]},
			{"inner×table", inner, table, slices.Clone[[]float64]},
			{"table×table", table, onesTable, slices.Clone[[]float64]},
			{"inner×inner", holder, kernelSide{v: ones[:n*stride], scale: rightScale, p: ident}, throughIdentity},
		} {
			if order.l.v != nil && order.r.v != nil && nCat == 1 {
				continue // one category: a case's NaN spreads over its whole pattern, leaving nothing to rescale
			}
			e := &Engine{nCat: nCat, stride: stride}
			dst, scale := make([]float64, n*stride), make([]float64, n)
			e.nvA = newviewArgs{l: order.l, r: order.r, dst: dst, scale: scale}
			body.fn(e, 0, n)
			for i, c := range cases {
				sc := 0.0
				for _, side := range []kernelSide{order.l, order.r} {
					if side.scale != nil {
						sc += side.scale[i]
					}
				}
				want, wantSc := refRescale(order.through(c.vals), sc)
				if got := wantSc != sc; got != c.rescaled {
					t.Fatalf("%s, %s: the reference rule rescaled=%v, the case expects %v", order.name, c.name, got, c.rescaled)
				}
				got := dst[i*stride : (i+1)*stride]
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Errorf("%s, %s, %s: dst[%d] = %v, want %v", body.name, order.name, c.name, k, got[k], want[k])
					}
				}
				if math.Float64bits(scale[i]) != math.Float64bits(wantSc) {
					t.Errorf("%s, %s, %s: scale = %v, want %v", body.name, order.name, c.name, scale[i], wantSc)
				}
			}
		}
	}
}

// BenchmarkOutview measures one outer-vector kernel on the 42_SC-sized input
// of the kernel micro-benchmarks (bench_test.go), cycling over every edge so
// tip and inner siblings and the root's prior all take their share. Each
// out[v] reads only vectors Refresh settled, so recomputing it in any order
// reproduces its bits.
func BenchmarkOutview(b *testing.B) { benchOutview(b, SingleRate()) }

func BenchmarkOutviewGamma4(b *testing.B) {
	rates, err := DiscreteGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchOutview(b, rates)
}

func benchOutview(b *testing.B, rates RateCategories) {
	eng, tree := benchKernelEngine(b, rates)
	edges := tree.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := edges[i%len(edges)]
		eng.computeOutOne(v.Parent, v)
	}
}

// benchKernelEngine returns a Refreshed JC69 engine over the 42_SC-sized input
// of the kernel micro-benchmarks, and its tree.
func benchKernelEngine(b *testing.B, rates RateCategories) (*Engine, *Tree) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 42, Length: 1167, Seed: 42, MeanBranchLength: 0.08})
	if err != nil {
		b.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(data, NewJC69(), rates)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	eng.Refresh(tree)
	return eng, tree
}

// BenchmarkAcceptPass measures one acceptance pass, the closing pass of a
// makenewz visit whose length moved, on the same input, cycling over every
// edge: each edge's sum table is built once by its first pass and kept, and
// the pass takes the likelihood at the edge's length and at twice it.
func BenchmarkAcceptPass(b *testing.B) { benchAcceptPass(b, SingleRate()) }

func BenchmarkAcceptPassGamma4(b *testing.B) {
	rates, err := DiscreteGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	benchAcceptPass(b, rates)
}

func benchAcceptPass(b *testing.B, rates RateCategories) {
	eng, tree := benchKernelEngine(b, rates)
	edges := tree.Edges()
	tabs, scales := make([][]float64, len(edges)), make([][]float64, len(edges))
	for k, v := range edges {
		eng.firstPass(v, v.Length)
		tabs[k], scales[k] = slices.Clone(eng.sumTab), slices.Clone(eng.sumScale)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(edges)
		eng.sumTab, eng.sumScale = tabs[k], scales[k]
		eng.acceptPass(edges[k].Length, 2*edges[k].Length)
	}
}
