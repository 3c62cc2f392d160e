package phylo

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSimulateProducesAnalyzableData(t *testing.T) {
	tree, aln, err := Simulate(DefaultSimulateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("true tree invalid: %v", err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatalf("alignment invalid: %v", err)
	}
	if aln.NumTaxa() != 12 || aln.Length() != 600 {
		t.Errorf("dimensions %dx%d", aln.NumTaxa(), aln.Length())
	}
	// Sequences should differ (branch lengths are non-zero) but not be
	// saturated random noise: expect 55-99% identity between any two.
	a, b := aln.Seqs[0], aln.Seqs[1]
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	frac := float64(same) / float64(len(a))
	if frac < 0.4 || frac > 0.999 {
		t.Errorf("pairwise identity %.2f looks wrong for the default divergence", frac)
	}
}

func TestSimulateDeterministicAndSeedSensitive(t *testing.T) {
	opts := DefaultSimulateOptions()
	_, a1, _ := Simulate(opts)
	_, a2, _ := Simulate(opts)
	opts.Seed++
	_, a3, _ := Simulate(opts)
	if string(a1.Seqs[0]) != string(a2.Seqs[0]) {
		t.Errorf("same seed should reproduce the same alignment")
	}
	if string(a1.Seqs[0]) == string(a3.Seqs[0]) {
		t.Errorf("different seeds should give different alignments")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, _, err := Simulate(SimulateOptions{Taxa: 2, Length: 10}); err == nil {
		t.Errorf("too few taxa should be rejected")
	}
	if _, _, err := Simulate(SimulateOptions{Taxa: 4, Length: 0}); err == nil {
		t.Errorf("zero length should be rejected")
	}
}

func TestSearchImprovesAndRecoversTopology(t *testing.T) {
	trueTree, aln, err := Simulate(SimulateOptions{Taxa: 8, Length: 1200, Seed: 21, MeanBranchLength: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := Compress(aln)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	res, err := eng.Search(SearchOptions{SmoothingRounds: 3, MaxRounds: 10, Epsilon: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikelihood < res.StartLogLik {
		t.Errorf("search made the likelihood worse: %v -> %v", res.StartLogLik, res.LogLikelihood)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("search produced an invalid tree: %v", err)
	}
	// With 1200 sites and modest divergence the NNI search should get within
	// a couple of rearrangements of the generating topology.
	rf := RobinsonFoulds(res.Tree, trueTree)
	maxRF := 2 * (8 - 3) // theoretical maximum for 8 taxa
	if rf > maxRF/2 {
		t.Errorf("recovered tree is far from the truth: RF = %d (max %d)", rf, maxRF)
	}
	if res.NNIEvaluated == 0 {
		t.Errorf("search should have evaluated NNI moves")
	}
	// The likelihood of the recovered tree should be at least as good as the
	// likelihood of the true tree with re-optimized branch lengths (ML
	// overfits slightly, so >= within tolerance).
	engTrue, _ := NewEngine(data, NewJC69(), SingleRate())
	trueLL := engTrue.OptimizeAllBranches(trueTree.Clone(), 6)
	if res.LogLikelihood < trueLL-1.0 {
		t.Errorf("search likelihood %v clearly below the true tree's %v", res.LogLikelihood, trueLL)
	}

	// The incumbent never falls from one sweep to the next (Progress reports
	// it before the first sweep and after each), at one and four rate
	// categories, on alignments of 10 to 18 taxa.
	gamma, err := DiscreteGamma(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rates := range []RateCategories{SingleRate(), gamma} {
		for seed := int64(1); seed <= 3; seed++ {
			_, aln, err := Simulate(SimulateOptions{Taxa: 6 + 4*int(seed), Length: 300, Seed: seed, Rates: rates})
			if err != nil {
				t.Fatal(err)
			}
			data, _ := Compress(aln)
			eng, _ := NewEngine(data, NewJC69(), rates)
			var lls []float64
			opts := DefaultSearchOptions()
			opts.Seed = seed
			opts.Progress = func(p SearchProgress) { lls = append(lls, p.LogLikelihood) }
			if _, err := eng.Search(opts); err != nil {
				t.Fatal(err)
			}
			if len(lls) < 2 {
				t.Errorf("%d categories, seed %d: %d progress reports, want one per sweep and one before", rates.Count(), seed, len(lls))
			}
			for i := 1; i < len(lls); i++ {
				if lls[i] < lls[i-1] {
					t.Errorf("%d categories, seed %d: logL fell from %v to %v at sweep %d", rates.Count(), seed, lls[i-1], lls[i], i)
				}
			}
		}
	}
}

// TestInvalidTreesRejected runs one table of corrupted trees through both
// entry points of the shared validator — Tree.Validate on fresh scratch and
// the check at the top of SearchInto on the engine's — and both must agree
// on every case. The engine is reused across cases, so its marks from one
// tree must not leak into the next.
func TestInvalidTreesRejected(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 6, Length: 200, Seed: 1})
	data, _ := Compress(aln)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	opts := SearchOptions{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.01}
	for _, tc := range []struct {
		name    string
		corrupt func(tr *Tree)
		want    string // a substring of both errors; "" for a valid tree
	}{
		{"intact", func(tr *Tree) {}, ""},
		{"no root", func(tr *Tree) { tr.Root = nil }, "tree has no root"},
		{"root has a parent", func(tr *Tree) { tr.Root.Parent = tr.Nodes[0] }, "root has a parent"},
		{"mismatched parent pointer", func(tr *Tree) { tr.Root.Children[0].Parent = nil }, "mismatched parent pointer"},
		{"negative branch length", func(tr *Tree) { tr.Nodes[2].Length = -0.1 }, "negative branch length on node 2"},
		{"unnamed tip", func(tr *Tree) { tr.Nodes[1].Name = "" }, "tip 1 has no name"},
		{"taxon index out of range", func(tr *Tree) { tr.Nodes[3].Taxon = len(tr.Taxa) }, "taxon index 6 outside [0,6)"},
		{"negative taxon index", func(tr *Tree) { tr.Nodes[3].Taxon = -1 }, "taxon index -1 outside [0,6)"},
		{"taxon twice", func(tr *Tree) { tr.Nodes[4].Taxon = tr.Nodes[5].Taxon }, "appears twice"},
		{"unary internal node", func(tr *Tree) { tr.Root.Children = tr.Root.Children[:1] }, "has 1 children, want 2"},
		{"unreachable node", func(tr *Tree) { tr.Nodes = append(tr.Nodes, &Node{ID: len(tr.Nodes), Taxon: -1}) }, "nodes"},
		{"tip ID outside the tips", func(tr *Tree) { tr.Nodes[2].ID = len(tr.Taxa) }, `tip "` + data.Names[2] + `" has ID 6 outside [0,6)`},
		{"internal ID outside the inner nodes", func(tr *Tree) { tr.Nodes[len(tr.Taxa)+1].ID = 0 }, "internal node 0 has an ID outside [6,11)"},
		{"intact again", func(tr *Tree) {}, ""},
	} {
		tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(tree)
		var res SearchResult
		for entry, err := range map[string]error{
			"Validate":   tree.Validate(),
			"SearchInto": eng.SearchInto(context.Background(), tree, opts, &res),
		} {
			if tc.want == "" && err != nil {
				t.Errorf("%s, %s: error %v, want none", tc.name, entry, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("%s, %s: error %v, want one containing %q", tc.name, entry, err, tc.want)
			}
		}
	}
}

func TestDistinctInferencesExploreDifferentStarts(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 7, Length: 300, Seed: 33, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	eng1, _ := NewEngine(data, NewJC69(), SingleRate())
	eng2, _ := NewEngine(data, NewJC69(), SingleRate())
	r1, err1 := eng1.Search(SearchOptions{SmoothingRounds: 2, MaxRounds: 3, Epsilon: 0.01, Seed: 1})
	r2, err2 := eng2.Search(SearchOptions{SmoothingRounds: 2, MaxRounds: 3, Epsilon: 0.01, Seed: 99})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// Both searches should land on finite likelihoods of the same data, and
	// the difference between them should be modest (they search the same
	// space from different starting trees).
	if math.Abs(r1.LogLikelihood-r2.LogLikelihood) > 0.2*math.Abs(r1.LogLikelihood) {
		t.Errorf("searches diverged wildly: %v vs %v", r1.LogLikelihood, r2.LogLikelihood)
	}
}

func TestRunAnalysisEndToEnd(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 6, Length: 300, Seed: 5, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	res, err := RunAnalysis(data, NewJC69(), SingleRate(), AnalysisOptions{
		Inferences: 2,
		Bootstraps: 3,
		Search:     SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.05},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTree == nil {
		t.Fatalf("no best tree returned")
	}
	if len(res.InferenceLogs) != 2 || len(res.Replicates) != 3 {
		t.Errorf("inferences/bootstraps = %d/%d", len(res.InferenceLogs), len(res.Replicates))
	}
	best := negInf()
	for _, ll := range res.InferenceLogs {
		if ll > best {
			best = ll
		}
	}
	if res.BestLogLik != best {
		t.Errorf("best log-likelihood %v does not match the best inference %v", res.BestLogLik, best)
	}
	for split, support := range res.Support {
		if support < 0 || support > 1 {
			t.Errorf("support value for %q = %v outside [0,1]", split, support)
		}
	}
}

func TestSupportValues(t *testing.T) {
	ref, _ := ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,D:0.1):0.1);")
	same, _ := ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,D:0.1):0.1);")
	other, _ := ParseNewick("((A:0.1,C:0.1):0.1,(B:0.1,D:0.1):0.1);")
	sup := SupportValues(ref, []*Tree{same, other, same})
	if len(sup) == 0 {
		t.Fatalf("no support values computed")
	}
	for split, v := range sup {
		if math.Abs(v-2.0/3.0) > 1e-9 {
			t.Errorf("support for %q = %v, want 2/3", split, v)
		}
	}
	empty := SupportValues(ref, nil)
	for _, v := range empty {
		if v != 0 {
			t.Errorf("support without replicates should be 0")
		}
	}
}

func TestDefaultSearchOptionsSane(t *testing.T) {
	o := DefaultSearchOptions()
	if o.SmoothingRounds <= 0 || o.MaxRounds <= 0 || o.Epsilon <= 0 {
		t.Errorf("default search options not positive: %+v", o)
	}
}

func TestSearchProgressReportsEverySweep(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 8, Length: 300, Seed: 3, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	var events []SearchProgress
	res, err := eng.Search(SearchOptions{
		SmoothingRounds: 2,
		MaxRounds:       4,
		Epsilon:         0.05,
		Seed:            9,
		Progress: func(p SearchProgress) {
			events = append(events, p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One report before the first sweep plus one per completed sweep.
	if len(events) != res.Rounds+1 {
		t.Fatalf("progress events = %d, want %d (rounds %d + initial)", len(events), res.Rounds+1, res.Rounds)
	}
	for i, ev := range events {
		if ev.Round != i {
			t.Errorf("event %d: round = %d", i, ev.Round)
		}
		if ev.MaxRounds != 4 {
			t.Errorf("event %d: max rounds = %d", i, ev.MaxRounds)
		}
		if i > 0 && ev.LogLikelihood < events[i-1].LogLikelihood {
			t.Errorf("log-likelihood regressed between sweeps: %v -> %v", events[i-1].LogLikelihood, ev.LogLikelihood)
		}
	}
	if last := events[len(events)-1]; last.NNIEvaluated != res.NNIEvaluated || last.NNIAccepted != res.NNIAccepted {
		t.Errorf("final progress %+v does not match result %+v", last, res)
	}
}
