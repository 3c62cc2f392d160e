package native

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"cellmg/internal/phylo"
)

// testData builds a small synthetic pattern alignment shared by the analysis
// tests.
func testData(t *testing.T) *phylo.PatternAlignment {
	t.Helper()
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 8, Length: 400, Seed: 13, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func analysisOpts() AnalysisOptions {
	return AnalysisOptions{
		Inferences: 3,
		Bootstraps: 4,
		Search:     phylo.SearchOptions{SmoothingRounds: 2, MaxRounds: 3, Epsilon: 0.05},
		Seed:       29,
	}
}

// fakeObserver is the test stand-in for the job server's TaskObserver: each
// method forwards to its func field when one is set.
type fakeObserver struct {
	recall     func(TaskID) (*TaskOutcome, *phylo.Checkpoint)
	checkpoint func(TaskID, *phylo.Checkpoint)
	taskDone   func(out TaskOutcome, completed, total int, recalled bool)
}

func (f *fakeObserver) Recall(id TaskID) (*TaskOutcome, *phylo.Checkpoint) {
	if f.recall == nil {
		return nil, nil
	}
	return f.recall(id)
}

func (f *fakeObserver) Checkpoint(id TaskID, c *phylo.Checkpoint) {
	if f.checkpoint != nil {
		f.checkpoint(id, c)
	}
}

func (f *fakeObserver) TaskDone(out TaskOutcome, completed, total int, recalled bool) {
	if f.taskDone != nil {
		f.taskDone(out, completed, total, recalled)
	}
}

// goldenSpec is one analysis pinned by testdata/analysis_golden.json. The
// fixture was written at the last commit where the serial and the parallel
// driver each had their own task body (796ba26), from native.RunAnalysis
// through server.ResultFromAnalysis; now that both drivers call
// phylo.RunTask, "serial == parallel" cannot notice a changed seed stream or
// task order, and the stored bytes can. One number has been rewritten since:
// the sum-table Newton iteration (PR 17) rounds differently inside makenewz
// and moved jc69_single_2i3b's best logL by one ulp (-2516.5581597124255 to
// -2516.558159712425); every Newick string and the other spec are the
// original bytes.
type goldenSpec struct {
	name string
	opts AnalysisOptions
}

func goldenSpecs(t *testing.T) []goldenSpec {
	t.Helper()
	gtr, err := phylo.NewGTR([6]float64{1.3, 3.2, 0.9, 1.1, 4.1, 1.0}, phylo.Frequencies{0.31, 0.19, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := phylo.DiscreteGamma(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	search := phylo.SearchOptions{SmoothingRounds: 2, MaxRounds: 4, Epsilon: 0.05}
	return []goldenSpec{
		{"jc69_single_2i3b", AnalysisOptions{Inferences: 2, Bootstraps: 3, Search: search, Seed: 29,
			Model: phylo.NewJC69(), Rates: phylo.SingleRate()}},
		{"gtr_gamma4_1i2b", AnalysisOptions{Inferences: 1, Bootstraps: 2, Search: search, Seed: 31,
			Model: gtr, Rates: gamma}},
	}
}

// checkGolden compares a result on testData, rendered in the wire shape of
// server.Result (which this package cannot import), with the fixture's bytes.
func checkGolden(t *testing.T, spec goldenSpec, run string, res *phylo.AnalysisResult) {
	t.Helper()
	raw, err := os.ReadFile("testdata/analysis_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	wire := struct {
		BestLogLik    float64            `json:"best_log_lik"`
		BestTree      string             `json:"best_tree"`
		InferenceLogs []float64          `json:"inference_logs"`
		Replicates    []string           `json:"replicates,omitempty"`
		Support       map[string]float64 `json:"support,omitempty"`
	}{BestLogLik: res.BestLogLik, BestTree: res.BestTree.Newick(), InferenceLogs: res.InferenceLogs, Support: res.Support}
	for _, rep := range res.Replicates {
		wire.Replicates = append(wire.Replicates, rep.Newick())
	}
	got, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden[spec.name]) {
		t.Errorf("%s, %s: result differs from testdata/analysis_golden.json\n got %s\nwant %s",
			spec.name, run, got, golden[spec.name])
	}
}

func TestParallelAnalysisMatchesSerialReference(t *testing.T) {
	data := testData(t)
	opts := analysisOpts()

	serial, err := phylo.RunAnalysis(data, phylo.NewJC69(), phylo.SingleRate(), phylo.AnalysisOptions{
		Inferences: opts.Inferences,
		Bootstraps: opts.Bootstraps,
		Search:     opts.Search,
		Seed:       opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	rt := New(Options{Workers: 4, Policy: EDTLP})
	defer rt.Close()
	parallel, err := RunAnalysis(rt, data, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Same seeds, same search code: the per-inference likelihoods must match
	// the serial reference exactly regardless of scheduling.
	if len(parallel.InferenceLogs) != len(serial.InferenceLogs) {
		t.Fatalf("inference count mismatch")
	}
	for i := range serial.InferenceLogs {
		if math.Abs(parallel.InferenceLogs[i]-serial.InferenceLogs[i]) > 1e-9 {
			t.Errorf("inference %d: parallel %v vs serial %v", i, parallel.InferenceLogs[i], serial.InferenceLogs[i])
		}
	}
	if math.Abs(parallel.BestLogLik-serial.BestLogLik) > 1e-9 {
		t.Errorf("best log-likelihood: parallel %v vs serial %v", parallel.BestLogLik, serial.BestLogLik)
	}
	if len(parallel.Replicates) != opts.Bootstraps {
		t.Errorf("replicates = %d, want %d", len(parallel.Replicates), opts.Bootstraps)
	}
	for i, rep := range parallel.Replicates {
		if rep == nil {
			t.Errorf("replicate %d missing", i)
		}
	}

	for _, spec := range goldenSpecs(t) {
		serial, err := phylo.RunAnalysis(data, spec.opts.Model, spec.opts.Rates, phylo.AnalysisOptions{
			Inferences: spec.opts.Inferences,
			Bootstraps: spec.opts.Bootstraps,
			Search:     spec.opts.Search,
			Seed:       spec.opts.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, spec, "phylo.RunAnalysis", serial)
		parallel, err := RunAnalysis(rt, data, spec.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, spec, "native EDTLP", parallel)
	}
}

func TestParallelAnalysisDeterministicAcrossPolicies(t *testing.T) {
	data := testData(t)
	opts := analysisOpts()
	var reference []float64
	for _, pol := range []PolicyKind{EDTLP, StaticLLP, MGPS} {
		rt := New(Options{Workers: 4, Policy: pol, SPEsPerLoop: 2})
		res, err := RunAnalysis(rt, data, opts)
		rt.Close()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if reference == nil {
			reference = res.InferenceLogs
			continue
		}
		for i := range reference {
			if math.Abs(res.InferenceLogs[i]-reference[i]) > 1e-9 {
				t.Errorf("%v: inference %d likelihood %v differs from reference %v",
					pol, i, res.InferenceLogs[i], reference[i])
			}
		}
	}
}

// TestParallelAnalysisWithLLPExercisesWorkSharing: GTR x Gamma4 on testData
// (226 patterns x 16 values: past the engine's loop crossover) with workers
// to borrow is the serial analysis bit for bit, loops work-shared; then each
// of the four loop bodies production work-shares is shown to have been, one
// kernel at a time; then the golden analyses under a width of 2.
func TestParallelAnalysisWithLLPExercisesWorkSharing(t *testing.T) {
	needTwoProcessors(t)
	data := testData(t)
	opts := analysisOpts()
	opts.Inferences = 1
	opts.Bootstraps = 0

	// Every pattern loop of every node goes through the one ParallelFor, there
	// is no other grain, and the result is the serial one bit for bit.
	gtr, err := phylo.NewGTR([6]float64{1.3, 3.2, 0.9, 1.1, 4.1, 1.0}, phylo.Frequencies{0.31, 0.19, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := phylo.DiscreteGamma(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.Model, opts.Rates = gtr, gamma
	serial, err := phylo.RunAnalysis(data, gtr, gamma, phylo.AnalysisOptions{
		Inferences: opts.Inferences,
		Search:     opts.Search,
		Seed:       opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 4} {
		rt := New(Options{Workers: 4, Policy: StaticLLP, SPEsPerLoop: width})
		res, err := RunAnalysis(rt, data, opts)
		s := rt.Stats()
		rt.Close()
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		sameTree := bytes.Equal(phylo.AppendTreeBinary(nil, res.BestTree), phylo.AppendTreeBinary(nil, serial.BestTree))
		if res.BestLogLik != serial.BestLogLik || !sameTree {
			t.Errorf("width %d: logL %v, serial %v; tree bits equal: %v", width,
				res.BestLogLik, serial.BestLogLik, sameTree)
		}
		if s.LoopsWorkShared == 0 || s.LoopsHeavy != 0 {
			t.Errorf("width %d: work-shared loops %d (want > 0), heavy loops %d (want 0)",
				width, s.LoopsWorkShared, s.LoopsHeavy)
		}
	}

	// The loop bodies production work-shares, one kernel at a time: this is
	// what puts newviewBody4's loops, evaluateBody, sumTableBody4 and
	// newtonBody4 on several goroutines under -race (CI runs this test by name
	// there), so a fixture or crossover change that turned one serial fails
	// here, not silently. A task's loops are counted as it ends, so each
	// kernel is its own off-load.
	rt := New(Options{Workers: 4, Policy: StaticLLP, SPEsPerLoop: 4})
	defer rt.Close()
	eng, err := phylo.NewEngine(data, gtr, gamma)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	eng.Refresh(tree)
	inner := tree.AppendNNIMoves(nil)[0].Edge
	for _, k := range []struct {
		kernel string
		loops  int64 // work-shared loops the kernel must add at least
		run    func()
	}{
		// One loop per inner node, each over every pattern.
		{"newview", 1, func() {
			for _, n := range tree.Nodes {
				eng.Newview(n)
			}
		}},
		{"evaluate", 1, func() { eng.EvaluateRoot(tree) }},
		// The sum table, then at least one Newton pass over it.
		{"sum table and Newton terms", 2, func() { eng.MakenewzEdge(inner) }},
	} {
		before := rt.Stats().LoopsWorkShared
		err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
			eng.SetParallel(tc.ParallelFor)
			k.run()
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Stats().LoopsWorkShared - before; got < k.loops {
			t.Errorf("%s over %d patterns: %d work-shared loops, want at least %d", k.kernel, data.NumPatterns(), got, k.loops)
		}
	}

	rt2 := New(Options{Workers: 4, Policy: StaticLLP, SPEsPerLoop: 2})
	defer rt2.Close()
	for _, spec := range goldenSpecs(t) {
		res, err := RunAnalysis(rt2, data, spec.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, spec, "native StaticLLP width 2", res)
	}
}

func TestAnalysisSupportValuesWellFormed(t *testing.T) {
	data := testData(t)
	rt := New(Options{Workers: 4, Policy: MGPS})
	defer rt.Close()
	res, err := RunAnalysis(rt, data, analysisOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTree == nil {
		t.Fatalf("no best tree")
	}
	if len(res.Support) == 0 {
		t.Errorf("bootstrap support values missing")
	}
	for split, v := range res.Support {
		if v < 0 || v > 1 {
			t.Errorf("support for %q = %v outside [0,1]", split, v)
		}
	}
}

func TestAnalysisDefaults(t *testing.T) {
	data := testData(t)
	rt := New(Options{Workers: 2})
	defer rt.Close()
	res, err := RunAnalysis(rt, data, AnalysisOptions{
		Search: phylo.SearchOptions{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InferenceLogs) != 1 {
		t.Errorf("default inference count should be 1")
	}
	if res.Support != nil {
		t.Errorf("no bootstraps -> no support values")
	}
}
