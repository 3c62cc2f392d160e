package phylo

import (
	"math"
	"math/rand"
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
}

// TestEdgeLogLikMatchesDerivativesBitForBit pins the contract the fused
// Newton step rests on: the likelihood-only kernel returns exactly the bits
// of edgeDerivatives' first result, on tip and inner edges, at the edge's own
// length, at the bounds, and below MinBranchLength (where optimizeEdge falls
// back to it for the unclamped "before"). Each call is one DerivEvals pass.
func TestEdgeLogLikMatchesDerivativesBitForBit(t *testing.T) {
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
				for _, b := range []float64{v.Length, 0, 1e-9, MinBranchLength, 0.37, MaxBranchLength} {
					before := eng.Stats.DerivEvals
					want, _, _ := eng.edgeDerivatives(v, b, true)
					got := eng.edgeLogLik(v, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("edge above node %d at length %g: edgeLogLik %v != edgeDerivatives %v", v.ID, b, got, want)
					}
					if n := eng.Stats.DerivEvals - before; n != 2 {
						t.Errorf("two passes counted as %d DerivEvals", n)
					}
				}
			}
			if tips == 0 || inner == 0 {
				t.Fatalf("covered %d tip and %d inner edges", tips, inner)
			}
		})
	}
}
