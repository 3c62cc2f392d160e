// Quickstart: the native multigrain runtime in ~50 lines.
//
// Three "MPI-process-like" submitters off-load tasks to a pool of eight
// workers; each task contains a parallelizable loop. Run once with the EDTLP
// policy (one worker per task) and once with MGPS, which notices that three
// task streams cannot fill eight workers and starts work-sharing the loops.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cellmg/internal/native"
)

// simulatedKernel is a stand-in for an off-loaded numerical kernel: it sweeps
// a loop of n elements, and the loop can be work-shared.
func simulatedKernel(tc *native.TaskContext, n int) float64 {
	partial := make([]float64, n)
	tc.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			partial[i] = math.Sqrt(float64(i)) * math.Log1p(float64(i))
		}
	})
	var sum float64
	for _, v := range partial {
		sum += v
	}
	return sum
}

func runWith(policy native.PolicyKind) time.Duration {
	rt := native.New(native.Options{Workers: 8, Policy: policy})
	defer rt.Close()

	const submitters = 3
	const tasksPerSubmitter = 40
	const loopSize = 200_000

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tasksPerSubmitter; i++ {
				if err := sub.Offload(func(tc *native.TaskContext) {
					simulatedKernel(tc, loopSize)
				}); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats := rt.Stats()
	fmt.Printf("%-10s finished %3d tasks in %8v  (work-shared loops: %d, final decision: %v)\n",
		policy, stats.TasksRun, elapsed.Round(time.Millisecond), stats.LoopsWorkShared, rt.Decision())
	return elapsed
}

func main() {
	fmt.Println("three task streams on eight workers — task-level parallelism alone vs adaptive multigrain:")
	edtlp := runWith(native.EDTLP)
	mgps := runWith(native.MGPS)
	if mgps < edtlp {
		fmt.Printf("MGPS was %.2fx faster: with only three concurrent tasks it gave each task's loops the idle workers.\n",
			float64(edtlp)/float64(mgps))
	} else {
		fmt.Println("on this machine the loop granularity was too fine for work-sharing to pay off — exactly the trade-off the MGPS policy arbitrates.")
	}
}
