// Example adaptive_loops: watch the MGPS controller switch parallelization
// modes as the degree of task-level parallelism changes at runtime.
//
// The program runs four phases against one runtime:
//
//  1. eight concurrent task streams  -> plenty of task-level parallelism,
//     the controller keeps (nearly) every loop serial (EDTLP), and with every
//     worker a task's master there is nobody to lend anyway;
//  2. two concurrent task streams    -> most workers would idle, so the
//     controller lets each task's loops borrow them (EDTLP-LLP);
//  3. back to eight streams          -> loop-level parallelism is throttled
//     again;
//  4. one task that issues 48 loops  -> a task keeps one worker, its master,
//     and every loop inside it is an off-load of its own: after the first
//     window of eight loop departures the controller has seen one stream
//     (U = 1) and the remaining loops each borrow the seven idle workers for
//     their own duration. This is what a lone tree search does.
//
// This is the behaviour the paper's Section 5.4 describes: loop-level
// parallelism is only exposed when task-level parallelism leaves SPEs (here:
// pool workers) idle. Each task models an off-loaded kernel: a parallelizable
// sweep over a buffer followed by a short stall that stands in for the DMA
// and synchronization latency an SPE kernel pays regardless of the host CPU
// count. (On a host with one processor the runtime lends nothing — a helper
// could only run when its master yields — and every loop stays serial.)
//
//	go run ./examples/adaptive_loops
package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cellmg/internal/native"
)

const loopSize = 20_000

// offloadedKernel is one task body: a work-sharable loop plus a fixed stall.
func offloadedKernel(tc *native.TaskContext) {
	buf := make([]float64, loopSize)
	tc.ParallelFor(loopSize, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			buf[j] = math.Sin(float64(j)) * math.Sqrt(float64(j))
		}
	})
	time.Sleep(2 * time.Millisecond) // DMA/synchronization stall
}

// manyLoops is the body of phase 4: one task, many kernels.
func manyLoops(tc *native.TaskContext) {
	for i := 0; i < 48; i++ {
		offloadedKernel(tc)
	}
}

func phase(rt *native.Runtime, name string, streams, tasksPerStream int, body func(*native.TaskContext)) {
	before := rt.Stats()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		sub := rt.NewSubmitter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tasksPerStream; i++ {
				if err := sub.Offload(body); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	after := rt.Stats()
	shared := after.LoopsWorkShared - before.LoopsWorkShared
	serial := after.LoopsSerial - before.LoopsSerial
	fmt.Printf("%-26s loops work-shared: %3d   loops kept serial: %3d   (decision at phase end: %v)\n",
		name, shared, serial, rt.Decision())
}

func main() {
	rt := native.New(native.Options{Workers: 8, Policy: native.MGPS})
	defer rt.Close()

	fmt.Printf("initial decision: %v (MGPS starts conservatively in EDTLP mode)\n\n", rt.Decision())
	phase(rt, "phase 1: 8 task streams", 8, 12, offloadedKernel)
	phase(rt, "phase 2: 2 task streams", 2, 24, offloadedKernel)
	phase(rt, "phase 3: 8 task streams", 8, 12, offloadedKernel)
	phase(rt, "phase 4: 1 task, 48 loops", 1, 1, manyLoops)

	s := rt.Stats()
	fmt.Printf("\ntotals: %d tasks, %d work-shared loops, %d serial loops, %d MGPS evaluations, %d mode switches\n",
		s.TasksRun, s.LoopsWorkShared, s.LoopsSerial, s.Evaluations, s.Switches)
	fmt.Println("\nExpected pattern: almost no work-sharing in phases 1 and 3 (eight task streams keep the pool busy")
	fmt.Println("by themselves), heavy work-sharing in phase 2, where two streams would otherwise leave six of the")
	fmt.Println("eight workers idle, and in phase 4 about forty of the lone task's 48 loops: a loop is an off-load,")
	fmt.Println("so the window closes eight loops in. The instantaneous decision printed at a phase end can lag by")
	fmt.Println("one adaptation window — exactly the hysteresis the paper builds into the controller.")
}
