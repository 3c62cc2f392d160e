package native

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmg/internal/stats"
)

func TestRuntimeDefaultsAndClose(t *testing.T) {
	rt := New(Options{})
	defer rt.Close()
	if rt.Workers() < 1 || rt.Workers() > 8 {
		t.Errorf("default worker count = %d, want 1..8", rt.Workers())
	}
	if rt.Policy() != EDTLP {
		t.Errorf("default policy = %v, want EDTLP", rt.Policy())
	}
	if rt.Decision().UseLLP {
		t.Errorf("EDTLP runtime should not enable LLP")
	}
	rt.Close() // double close must be safe
	sub := rt.NewSubmitter()
	if err := sub.Offload(func(tc *TaskContext) {}); err == nil {
		t.Errorf("offload after close should fail")
	}
}

func TestOffloadRunsTaskAndCounts(t *testing.T) {
	rt := New(Options{Workers: 4})
	defer rt.Close()
	sub := rt.NewSubmitter()
	ran := false
	if err := sub.Offload(func(tc *TaskContext) {
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatalf("task body did not run")
	}
	if s := rt.Stats(); s.TasksRun != 1 {
		t.Errorf("tasks run = %d, want 1", s.TasksRun)
	}
}

func TestTaskLevelParallelismUsesAllWorkers(t *testing.T) {
	const workers = 4
	rt := New(Options{Workers: workers})
	defer rt.Close()

	var running, maxRunning int64
	var wg sync.WaitGroup
	for i := 0; i < 2*workers; i++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub.Offload(func(tc *TaskContext) {
				cur := atomic.AddInt64(&running, 1)
				for {
					prev := atomic.LoadInt64(&maxRunning)
					if cur <= prev || atomic.CompareAndSwapInt64(&maxRunning, prev, cur) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				atomic.AddInt64(&running, -1)
			})
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&maxRunning); got != workers {
		t.Errorf("max concurrent tasks = %d, want %d (one per worker)", got, workers)
	}
}

// TestStaticLLPGroupsAndParallelFor: under static EDTLP-LLP(4) a task holds
// one worker, its master, and every loop of it borrows the three others the
// decision adds while they are idle: the loop is cut into four contiguous
// shares, the same four every time, covers every index once and counts as one
// work-shared loop. The workers are lent, not held: all eight can be masters
// at once, and then there is nobody to borrow from.
func TestStaticLLPGroupsAndParallelFor(t *testing.T) {
	needTwoProcessors(t)
	rt := New(Options{Workers: 8, Policy: StaticLLP, SPEsPerLoop: 4})
	defer rt.Close()

	var mu sync.Mutex
	var rounds [2][][2]int
	err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
		for r := range rounds {
			tc.ParallelFor(1000, func(lo, hi int) {
				mu.Lock()
				rounds[r] = append(rounds[r], [2]int{lo, hi})
				mu.Unlock()
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 250}, {250, 500}, {500, 750}, {750, 1000}}
	for r := range rounds {
		slices.SortFunc(rounds[r], func(a, b [2]int) int { return a[0] - b[0] })
		if !slices.Equal(rounds[r], want) {
			t.Errorf("loop %d ran as shares %v, want %v", r, rounds[r], want)
		}
	}
	if s := rt.Stats(); s.LoopsWorkShared != 2 || s.LoopsSerial != 0 {
		t.Errorf("loop accounting = %+v, want 2 work-shared", s)
	}

	// Eight tasks at once: each is granted a master (none waits for a group
	// of four), and with every worker a master their loops run whole.
	var started, release, looped sync.WaitGroup
	started.Add(8)
	release.Add(1)
	looped.Add(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sub.Offload(func(tc *TaskContext) {
				started.Done()
				release.Wait()
				tc.ParallelFor(1000, func(lo, hi int) {
					if lo != 0 || hi != 1000 {
						t.Errorf("a loop was cut to [%d,%d) with no idle worker to lend", lo, hi)
					}
				})
				looped.Done()
				looped.Wait() // stay a master until every task has run its loop
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	started.Wait() // all eight bodies are running: eight masters on eight workers
	release.Done()
	wg.Wait()
	if s := rt.Stats(); s.LoopsWorkShared != 2 || s.LoopsSerial != 8 {
		t.Errorf("loop accounting = %+v, want 2 work-shared and 8 serial", s)
	}
}

func TestParallelForDegenerateCases(t *testing.T) {
	rt := New(Options{Workers: 2, Policy: StaticLLP, SPEsPerLoop: 2})
	defer rt.Close()
	sub := rt.NewSubmitter()
	err := sub.Offload(func(tc *TaskContext) {
		calls := 0
		// Zero-trip loop: the body must never run; the bare write is the
		// tripwire that detects if it wrongly does.
		tc.ParallelFor(0, func(lo, hi int) { calls++ })
		if calls != 0 {
			t.Errorf("empty loop should not invoke the body")
		}
		total := 0
		var mu sync.Mutex
		tc.ParallelFor(1, func(lo, hi int) {
			mu.Lock()
			total += hi - lo
			mu.Unlock()
		})
		if total != 1 {
			t.Errorf("single-iteration loop covered %d iterations", total)
		}
		// n smaller than the group size must still cover everything exactly once.
		var count int64
		tc.ParallelFor(3, func(lo, hi int) { atomic.AddInt64(&count, int64(hi-lo)) })
		if count != 3 {
			t.Errorf("loop of 3 covered %d iterations", count)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialLoopWhenGroupIsOne(t *testing.T) {
	rt := New(Options{Workers: 4, Policy: EDTLP})
	defer rt.Close()
	sub := rt.NewSubmitter()
	sub.Offload(func(tc *TaskContext) {
		tc.ParallelFor(100, func(lo, hi int) {
			if lo != 0 || hi != 100 {
				t.Errorf("single-worker loop should be one chunk, got [%d,%d)", lo, hi)
			}
		})
	})
	if s := rt.Stats(); s.LoopsSerial != 1 || s.LoopsWorkShared != 0 {
		t.Errorf("loop accounting = %+v", s)
	}
}

// TestMGPSAdaptsToLowTaskParallelism: two tasks on eight workers, each
// issuing loops. Every loop is a departure, so after the first window of
// eight (U = 2 <= 4) the controller decides EDTLP-LLP with 8/2 = 4 workers a
// loop, and from then on each task's loops borrow idle workers — never more
// than three while the other task is there.
func TestMGPSAdaptsToLowTaskParallelism(t *testing.T) {
	needTwoProcessors(t)
	rt := New(Options{Workers: 8, Policy: MGPS})
	defer rt.Close()
	var collector stats.OffloadCollector
	var arrived, both sync.WaitGroup // a task loops only once both are in, and leaves only when both are done
	arrived.Add(2)
	both.Add(2)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		sub := rt.NewSubmitterWithSink(&collector)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sub.Offload(func(tc *TaskContext) {
				arrived.Done()
				arrived.Wait()
				var covered atomic.Int64
				for i := 0; i < 200; i++ {
					tc.ParallelFor(64, func(lo, hi int) { covered.Add(int64(hi - lo)) })
				}
				if covered.Load() != 200*64 {
					t.Errorf("loops covered %d iterations, want %d", covered.Load(), 200*64)
				}
				both.Done()
				both.Wait()
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := rt.Stats()
	if s.Evaluations == 0 || s.Switches == 0 {
		t.Errorf("MGPS evaluated %d windows and switched %d times over 400 loop departures", s.Evaluations, s.Switches)
	}
	if s.LoopsWorkShared == 0 {
		t.Errorf("no loop borrowed a worker with six of eight idle, stats = %+v", s)
	}
	sum := collector.Summary()
	if sum.Offloads != 2 || sum.WorkShared == 0 {
		t.Errorf("off-load summary = %+v, want 2 off-loads with work-shared loops", sum)
	}
	// WorkersGranted adds each task's widest loop: at most 4 each while the
	// two of them were there to share the eight.
	if sum.WorkersGranted < 3 || sum.WorkersGranted > 8 {
		t.Errorf("widest loops add to %d workers, want each task between 2 and 4", sum.WorkersGranted)
	}
}

func TestMGPSStaysTaskLevelUnderHighParallelism(t *testing.T) {
	rt := New(Options{Workers: 8, Policy: MGPS})
	defer rt.Close()
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sub.Offload(func(tc *TaskContext) {
					time.Sleep(time.Millisecond)
				})
			}
		}()
	}
	wg.Wait()
	if dec := rt.Decision(); dec.UseLLP {
		t.Errorf("MGPS with 8 submitters should remain in EDTLP mode, decision = %v", dec)
	}
}

func TestWorkerBusyAccounting(t *testing.T) {
	rt := New(Options{Workers: 2})
	defer rt.Close()
	sub := rt.NewSubmitter()
	sub.Offload(func(tc *TaskContext) { time.Sleep(10 * time.Millisecond) })
	s := rt.Stats()
	if len(s.WorkerBusy) != 2 {
		t.Fatalf("busy slice has %d entries", len(s.WorkerBusy))
	}
	var total time.Duration
	for _, b := range s.WorkerBusy {
		total += b
	}
	if total < 8*time.Millisecond {
		t.Errorf("worker busy time = %v, want >= ~10ms", total)
	}
}

func TestPolicyKindString(t *testing.T) {
	if EDTLP.String() != "EDTLP" || StaticLLP.String() != "StaticLLP" || MGPS.String() != "MGPS" {
		t.Errorf("policy names wrong")
	}
	if PolicyKind(42).String() == "" {
		t.Errorf("unknown policy should still render")
	}
	for name, want := range map[string]PolicyKind{"edtlp": EDTLP, "llp": StaticLLP, "mgps": MGPS} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("MGPS "); err == nil {
		t.Errorf("ParsePolicy accepted a name no command documents")
	}
}

func TestOptionsClamping(t *testing.T) {
	rt := New(Options{Workers: 2, Policy: StaticLLP, SPEsPerLoop: 16})
	defer rt.Close()
	if d := rt.Decision(); d.SPEsPerLoop != 2 {
		t.Errorf("SPEsPerLoop should be clamped to the worker count, got %d", d.SPEsPerLoop)
	}
	rt2 := New(Options{Workers: 2, Policy: MGPS})
	defer rt2.Close()
	if rt2.Decision().UseLLP {
		t.Errorf("MGPS starts in EDTLP mode")
	}
}
