package native

import (
	"sync/atomic"
	"testing"
)

// TestParallelForAllocationFree is the loop-level half of the allocation
// guard: in steady state borrow → work-shared loop → return must not allocate
// — the pool writes the borrowed workers into the context's own slice, a
// share travels in the worker's mailbox, and the join is a counter. A
// regression here multiplies across every per-pattern kernel loop of every
// task. The trip counts take every way through the function: the paper's 228
// patterns, a loop shorter than the group is wide (3 trips on 4 workers: two
// are borrowed), the one-trip and empty loops, and on a group of two the
// two-trip loop, one trip each.
func TestParallelForAllocationFree(t *testing.T) {
	needTwoProcessors(t)
	parallelForAllocs(t, 4, 2, 228, 3, 1, 0)
	parallelForAllocs(t, 2, 2, 228, 2)
}

// parallelForAllocs runs the loops of the given trip counts, shared of which
// are long enough to be work-shared, on a worker group of the given size.
func parallelForAllocs(t *testing.T, group int, shared int64, trips ...int) {
	rt := New(Options{Workers: group, Policy: StaticLLP, SPEsPerLoop: group})
	defer rt.Close()

	var avg float64
	var total, round int64
	body := func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) }
	for _, n := range trips {
		round += int64(n)
	}
	err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
		loops := func() {
			for _, n := range trips {
				tc.ParallelFor(n, body)
			}
		}
		loops() // warm: the helpers have been woken once and are spinning
		avg = testing.AllocsPerRun(100, loops)
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("group of %d: ParallelFor allocates %v per round of loops in steady state, want 0", group, avg)
	}
	// One explicit warm round + AllocsPerRun's runs+1.
	if s := rt.Stats(); total != 102*round || s.LoopsWorkShared != 102*shared {
		t.Errorf("group of %d: loops covered %d iterations, want %d; %d work-shared, want %d",
			group, total, 102*round, s.LoopsWorkShared, 102*shared)
	}
}

// TestParallelForAdaptiveBalancesIrregularLoops drives a loop whose cost is
// wildly skewed toward the first iterations (the shape scaling-triggered
// patterns produce). Shares are static, so the skew costs the first share's
// worker time and everyone else a wait at the join — never coverage: every
// index is still run exactly once, and a second loop right behind it finds
// all seven helpers back in the pool.
func TestParallelForAdaptiveBalancesIrregularLoops(t *testing.T) {
	needTwoProcessors(t)
	rt := New(Options{Workers: 8, Policy: StaticLLP, SPEsPerLoop: 8})
	defer rt.Close()

	const n = 1000
	counts := make([]int32, n)
	err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
		tc.ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Irregular cost: early iterations spin, late ones are free.
				if i < n/10 {
					s := 0
					for k := 0; k < 20000; k++ {
						s += k
					}
					_ = s
				}
				atomic.AddInt32(&counts[i], 1)
			}
		})
		var shares atomic.Int32
		tc.ParallelFor(n, func(lo, hi int) { shares.Add(1) })
		if shares.Load() != 8 {
			t.Errorf("the loop after the skewed one ran as %d shares, want 8", shares.Load())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times, want exactly once", i, c)
		}
	}
	if s := rt.Stats(); s.LoopsWorkShared != 2 {
		t.Errorf("work-shared loops = %d, want 2", s.LoopsWorkShared)
	}
}
