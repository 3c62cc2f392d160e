package sched

import (
	"fmt"

	"cellmg/internal/cellsim"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// kernelProc is the kernel scheduler's view of one MPI process: its step
// sequence, the progress made so far, and the SPE its off-loads are bound to.
type kernelProc struct {
	proc *workload.Process
	cell *cellRun
	spe  *cellsim.SPE

	stepIdx  int
	consumed sim.Duration // portion of the current compute step already executed
	done     bool
}

// runKernelScheduled models the paper's baseline: the MPI processes are
// ordinary Linux tasks multiplexed over the PPE's SMT contexts by the kernel
// with a time quantum that is several orders of magnitude longer than an
// off-loaded task (10 ms vs 96 us). A process that off-loads a function
// spin-waits for its completion while still holding its hardware context, so
// with N > 2 processes at most two SPEs are ever busy and total time grows as
// ceil(N/2) multiples of the single-bootstrap time.
//
// Processes are distributed round-robin over per-context run queues and stay
// there, mirroring Linux's per-CPU run queues, which rarely migrate CPU-bound
// tasks. This is what produces Table 1's step pattern: 3 workers take the
// same two "waves" as 4 workers because two of them share one SMT context
// for their entire lifetime.
//
// With ppeOnly set, off-loadable calls are executed on the PPE instead (the
// starting point of Section 5.1).
func runKernelScheduled(r *run, procs []*workload.Process, ppeOnly bool) {
	// One run queue per PPE hardware context, like the kernel's per-CPU
	// queues.
	type ctxKey struct{ cell, ctx int }
	queues := map[ctxKey]*sim.Queue[*kernelProc]{}
	for ci, c := range r.cells {
		for ctx := 0; ctx < c.cell.PPE.Contexts(); ctx++ {
			queues[ctxKey{ci, ctx}] = sim.NewQueue[*kernelProc](r.eng)
		}
	}
	perCellCount := make([]int, len(r.cells))
	for _, p := range procs {
		cr := r.cellFor(p.ID)
		cr.assigned++
		cr.unfinished++
		ci := cr.cell.Index
		seq := perCellCount[ci]
		perCellCount[ci]++
		kp := &kernelProc{
			proc: p,
			cell: cr,
			spe:  cr.cell.SPEs[seq%cellsim.SPEsPerCell],
		}
		queues[ctxKey{ci, seq % cr.cell.PPE.Contexts()}].Put(kp)
	}
	for ci, c := range r.cells {
		for ctx := 0; ctx < c.cell.PPE.Contexts(); ctx++ {
			cr := c
			q := queues[ctxKey{ci, ctx}]
			r.eng.Spawn(fmt.Sprintf("cell%d.kdispatch%d", ci, ctx), func(sp *sim.Proc) {
				r.kernelDispatcher(sp, cr, q, ppeOnly)
			})
		}
	}
}

// kernelDispatcher is one PPE hardware context under the kernel scheduler:
// it pops a process from the run queue and executes it until it finishes or
// its quantum expires while other processes are runnable.
func (r *run) kernelDispatcher(sp *sim.Proc, cr *cellRun, q *sim.Queue[*kernelProc], ppeOnly bool) {
	cost := r.machine.Cost
	ppe := cr.cell.PPE
	for {
		kp := q.Get(sp)
		quantumEnd := sp.Now().Add(cost.KernelQuantum)
		preempted := false
		for !kp.done && !preempted {
			step := kp.proc.Steps[kp.stepIdx]
			switch {
			case step.Kind == workload.PPECompute || ppeOnly:
				// Both genuine PPE bursts and (in PPE-only mode) the PPE
				// fallback versions of the likelihood functions are ordinary
				// computation that the quantum can split.
				total := step.Duration
				if step.Kind == workload.OffloadCall {
					total = sim.Duration(float64(step.Fn.PPETime) * step.Scale)
					if kp.consumed == 0 {
						r.rt.Stats.PPEExecutions++
					}
				}
				remaining := total - kp.consumed
				budget := quantumEnd.Sub(sp.Now())
				if budget < remaining && q.Len() > 0 {
					ppe.Compute(sp, budget)
					kp.consumed += budget
				} else {
					ppe.Compute(sp, remaining)
					kp.consumed = 0
					kp.stepIdx++
				}

			default: // OffloadCall with off-loading enabled
				ppe.Compute(sp, cost.PPEToSPESignal)
				done := r.rt.OffloadSerial(kp.spe, step.Fn, step.Scale)
				// The MPI process spin-waits on the completion mailbox while
				// continuing to hold its hardware context: the off-loaded
				// task is far shorter than the quantum, so the kernel never
				// switches here — precisely the pathology EDTLP fixes.
				done.Wait(sp)
				kp.stepIdx++
			}

			if kp.stepIdx >= len(kp.proc.Steps) {
				kp.done = true
				break
			}
			if sp.Now() >= quantumEnd && q.Len() > 0 {
				preempted = true
			}
		}
		if kp.done {
			r.finish[kp.proc.ID] = sim.Duration(sp.Now())
			kp.cell.unfinished--
			continue
		}
		// Quantum expired with other runnable processes: involuntary switch.
		ppe.KernelSwitch(sp)
		q.Put(kp)
	}
}
