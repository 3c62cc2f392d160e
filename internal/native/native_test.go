package native

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		if tc.GroupSize() != 1 {
			t.Errorf("EDTLP task group size = %d, want 1", tc.GroupSize())
		}
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

func TestStaticLLPGroupsAndParallelFor(t *testing.T) {
	rt := New(Options{Workers: 8, Policy: StaticLLP, SPEsPerLoop: 4})
	defer rt.Close()
	sub := rt.NewSubmitter()

	var covered []bool
	err := sub.Offload(func(tc *TaskContext) {
		if tc.GroupSize() != 4 {
			t.Errorf("group size = %d, want 4", tc.GroupSize())
		}
		covered = make([]bool, 1000)
		var mu sync.Mutex
		tc.ParallelFor(1000, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("index %d covered twice", i)
				}
				covered[i] = true
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered by ParallelFor", i)
		}
	}
	s := rt.Stats()
	if s.LoopsWorkShared != 1 {
		t.Errorf("work-shared loops = %d, want 1", s.LoopsWorkShared)
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

func TestMGPSAdaptsToLowTaskParallelism(t *testing.T) {
	rt := New(Options{Workers: 8, Policy: MGPS})
	defer rt.Close()
	// Two submitters issuing many small tasks: after the first window the
	// controller should grant 4 workers per task.
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub.Offload(func(tc *TaskContext) {
					time.Sleep(time.Millisecond)
				})
			}
		}()
	}
	wg.Wait()
	dec := rt.Decision()
	if !dec.UseLLP {
		t.Errorf("MGPS with 2 submitters should have activated LLP, decision = %v", dec)
	}
	if dec.SPEsPerLoop < 2 || dec.SPEsPerLoop > 8 {
		t.Errorf("SPEs per loop = %d out of range", dec.SPEsPerLoop)
	}
	s := rt.Stats()
	if s.Evaluations == 0 {
		t.Errorf("MGPS should have evaluated at least one window")
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
