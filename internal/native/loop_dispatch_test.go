package native

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"cellmg/internal/phylo"
	"cellmg/internal/stats"
)

// needTwoProcessors skips a test of work-shared loops where none can happen.
func needTwoProcessors(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("loops are lent workers only where a second processor can run them")
	}
}

// loneSearch is the Gamma4 golden analysis cut down to its one inference: a
// single search with nothing beside it. Its task seed depends on (Seed, task
// id) alone, so the search is the golden file's, bootstraps or not.
func loneSearch(t *testing.T) (goldenSpec, struct {
	BestLogLik float64 `json:"best_log_lik"`
	BestTree   string  `json:"best_tree"`
}) {
	t.Helper()
	spec := goldenSpecs(t)[1]
	spec.opts.Bootstraps = 0
	raw, err := os.ReadFile("testdata/analysis_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		BestLogLik float64 `json:"best_log_lik"`
		BestTree   string  `json:"best_tree"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	return spec, golden[spec.name]
}

// TestLoneSearchBorrowsIdleWorker is the paper's claim on the native runtime:
// one Gamma4 search on two workers under MGPS. Its loops are the off-loads the
// window counts, so two loops in the controller has seen one stream (U = 1 <=
// 1), decides EDTLP-LLP(2) and every loop after borrows the idle worker — and
// the search is the golden file's to the bit.
func TestLoneSearchBorrowsIdleWorker(t *testing.T) {
	needTwoProcessors(t)
	spec, golden := loneSearch(t)
	var collector stats.OffloadCollector
	spec.opts.Sink = &collector
	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	res, err := RunAnalysis(rt, testData(t), spec.opts)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.LoopsWorkShared == 0 || s.Evaluations == 0 || s.Switches < 1 {
		t.Errorf("a lone search left the second worker idle: %+v", s)
	}
	if d := rt.Decision(); !d.UseLLP || d.SPEsPerLoop != 2 {
		t.Errorf("decision after a lone search = %v, want EDTLP-LLP(2)", d)
	}
	if sum := collector.Summary(); sum.Offloads != 1 || sum.WorkersGranted != 2 || sum.WorkShared != 1 {
		t.Errorf("off-load summary = %+v, want one task whose widest loop ran on 2 workers", sum)
	}
	if res.BestLogLik != golden.BestLogLik || res.BestTree.Newick() != golden.BestTree {
		t.Errorf("work-shared search: logL %v tree %s\n golden %v tree %s",
			res.BestLogLik, res.BestTree.Newick(), golden.BestLogLik, golden.BestTree)
	}
}

// TestLoneSearchBelowCrossoverStaysSerial: the same alignment under a single
// rate is 226 x 4 values a loop, short of the engine's crossover, so the
// engine keeps its loops to itself and the runtime never hears of one.
func TestLoneSearchBelowCrossoverStaysSerial(t *testing.T) {
	needTwoProcessors(t)
	spec := goldenSpecs(t)[0]
	spec.opts.Inferences, spec.opts.Bootstraps = 1, 0
	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	if _, err := RunAnalysis(rt, testData(t), spec.opts); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.LoopsWorkShared != 0 || s.LoopsSerial != 0 || s.Evaluations != 0 {
		t.Errorf("a search below the loop crossover reached the runtime's loop path: %+v", s)
	}
}

// TestTwoSearchesNeverBorrow: two Gamma4 tasks on two workers, both masters
// for as long as either has loops to run. Their loops are departures of two
// streams with two tasks wanting workers, so the decision stays EDTLP, and
// there is no idle worker to lend in any case: every loop runs whole, and the
// vectors are the serial engine's.
func TestTwoSearchesNeverBorrow(t *testing.T) {
	needTwoProcessors(t)
	spec, _ := loneSearch(t)
	data := testData(t)
	serial, err := phylo.NewEngine(data, spec.opts.Model, spec.opts.Rates)
	if err != nil {
		t.Fatal(err)
	}
	newTree := func() *phylo.Tree {
		tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	want := serial.OptimizeAllBranches(newTree(), 2)

	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	var arrived, done, wg sync.WaitGroup
	arrived.Add(2)
	done.Add(2)
	for i := 0; i < 2; i++ {
		eng, err := phylo.NewEngine(data, spec.opts.Model, spec.opts.Rates)
		if err != nil {
			t.Fatal(err)
		}
		tree, sub := newTree(), rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sub.Offload(func(tc *TaskContext) {
				arrived.Done()
				arrived.Wait()
				eng.SetParallel(tc.ParallelFor)
				if got := eng.OptimizeAllBranches(tree, 2); got != want {
					t.Errorf("logL %v beside another task, %v serial", got, want)
				}
				done.Done()
				done.Wait()
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := rt.Stats()
	if s.LoopsWorkShared != 0 || s.LoopsSerial == 0 || s.Evaluations == 0 || s.Switches != 0 {
		t.Errorf("two tasks on two workers: %+v, want every loop offered, counted and run whole under EDTLP", s)
	}
}

// TestBorrowNeedsTwoProcessors: with GOMAXPROCS(1) a helper could only run
// when the master yields to it, so a runtime created there lends nothing:
// the search runs serial, finishes, and is the golden one.
func TestBorrowNeedsTwoProcessors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, golden := loneSearch(t)
	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	res, err := RunAnalysis(rt, testData(t), spec.opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.LoopsWorkShared != 0 || s.LoopsSerial == 0 {
		t.Errorf("loops on one processor: %+v, want all of them serial", s)
	}
	if res.BestLogLik != golden.BestLogLik || res.BestTree.Newick() != golden.BestTree {
		t.Errorf("serial search: logL %v, golden %v", res.BestLogLik, golden.BestLogLik)
	}
}

// engineWatcher attaches a cleanup to the engine of the first task that emits
// a checkpoint (the *phylo.Checkpoint is a field of the engine, so the cleanup
// runs when the engine is collected).
type engineWatcher struct {
	fakeObserver
	once      sync.Once
	collected chan struct{}
}

func (w *engineWatcher) Checkpoint(_ TaskID, c *phylo.Checkpoint) {
	w.once.Do(func() {
		runtime.AddCleanup(c, func(ch chan struct{}) { close(ch) }, w.collected)
	})
}

// TestBorrowedWorkerReleasesEngine: a loop body is a method value of the
// task's engine. Once the analysis has returned, nothing the runtime keeps —
// a worker's mailbox, a parked helper's frame — may still hold one: the
// engine of the finished search is collected while the runtime stays open.
func TestBorrowedWorkerReleasesEngine(t *testing.T) {
	needTwoProcessors(t)
	spec, _ := loneSearch(t)
	watcher := &engineWatcher{collected: make(chan struct{})}
	spec.opts.Observer = watcher
	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	if _, err := RunAnalysis(rt, testData(t), spec.opts); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().LoopsWorkShared == 0 {
		t.Fatal("no loop was work-shared; the test premise is broken")
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-watcher.collected:
			return
		case <-deadline:
			t.Fatal("the finished search's engine is still reachable from the open runtime")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestIdleRuntimeBurnsNothing: helpers spin for helperSpin after a share and
// then park. Once a work-shared search is over and that bound has passed, an
// open runtime costs no processor time: the whole process uses next to none
// over 200 ms.
func TestIdleRuntimeBurnsNothing(t *testing.T) {
	needTwoProcessors(t)
	spec, _ := loneSearch(t)
	rt := New(Options{Workers: 2, Policy: MGPS})
	defer rt.Close()
	if _, err := RunAnalysis(rt, testData(t), spec.opts); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().LoopsWorkShared == 0 {
		t.Fatal("no loop was work-shared; the test premise is broken")
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.GC() // not during the window
	time.Sleep(20 * helperSpin)
	before := cpu()
	time.Sleep(200 * time.Millisecond)
	if used := cpu() - before; used > 20*time.Millisecond {
		t.Errorf("an idle runtime used %v of processor time in 200 ms; a spinning helper would use all of it", used)
	}
}

// TestBorrowYieldsToQueuedTask drives the hand-over the pool's table test
// pins, on real threads: with one worker a master and the other lent to its
// loops again and again, a second submitter arrives. It must be granted the
// lent worker at the next return — the looping task's further borrows yield
// to it — so both bodies run at once while the first is still looping.
func TestBorrowYieldsToQueuedTask(t *testing.T) {
	needTwoProcessors(t)
	rt := New(Options{Workers: 2, Policy: StaticLLP, SPEsPerLoop: 2})
	defer rt.Close()
	secondRunning := make(chan struct{})
	firstLooping := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
			for i := 0; ; i++ {
				tc.ParallelFor(64, func(lo, hi int) {})
				if i == 100 {
					close(firstLooping)
				}
				select {
				case <-secondRunning:
					return
				default:
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-firstLooping
		if err := rt.NewSubmitter().Offload(func(tc *TaskContext) { close(secondRunning) }); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}
