package native

import (
	"sync/atomic"
	"testing"
)

// TestParallelForAllocationFree is the loop-level half of the allocation
// guard: in steady state a ParallelFor must not allocate — the loop descriptor
// lives in the TaskContext, the worker-side runner is one persistent closure,
// and grain claiming is a bare atomic add. A regression here multiplies across
// every per-pattern kernel loop of every task. The trip counts take every way
// through the function: the paper's 228 patterns, a loop short enough for the
// minimum grain, the one-trip and empty loops, and on a group of two the
// two-trip loop whose master share leaves the other worker nothing.
func TestParallelForAllocationFree(t *testing.T) {
	parallelForAllocs(t, 4, 2, 228, 20, 1, 0)
	parallelForAllocs(t, 2, 1, 228, 2)
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
		if tc.GroupSize() != group {
			t.Errorf("group size = %d, want %d", tc.GroupSize(), group)
		}
		loops := func() {
			for _, n := range trips {
				tc.ParallelFor(n, body)
			}
		}
		loops() // warm: the descriptor and runner exist after this
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
// wildly skewed toward the first iterations (the shape Gamma-category and
// scaling-triggered patterns produce) and checks every index is still covered
// exactly once under the grain-claiming scheduler.
func TestParallelForAdaptiveBalancesIrregularLoops(t *testing.T) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d covered %d times, want exactly once", i, c)
		}
	}
	if s := rt.Stats(); s.LoopsWorkShared != 1 {
		t.Errorf("work-shared loops = %d, want 1", s.LoopsWorkShared)
	}
}
