package sched

import (
	"fmt"

	"cellmg/internal/cellsim"
	"cellmg/internal/offload"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// kernelProc is the kernel scheduler's view of one MPI process: its step
// sequence, the progress made so far, and the SPE its off-loads are bound to.
type kernelProc struct {
	proc *workload.Process
	spe  *cellsim.SPE

	stepIdx  int
	consumed sim.Duration // portion of the current compute step already executed
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
	// One dispatcher with its own run queue per PPE hardware context, like
	// the kernel's per-CPU queues.
	dispatchers := make([][]*kernelDispatcher, len(r.cells))
	for ci, c := range r.cells {
		for ctx := 0; ctx < c.cell.PPE.Contexts(); ctx++ {
			d := &kernelDispatcher{c: c, q: sim.NewQueue[*kernelProc](r.eng), ppeOnly: ppeOnly, flight: offload.NewFlight(r.eng)}
			dispatchers[ci] = append(dispatchers[ci], d)
			r.eng.Spawn(fmt.Sprintf("cell%d.kdispatch%d", ci, ctx), d.step)
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
		dispatchers[ci][seq%len(dispatchers[ci])].q.Put(&kernelProc{proc: p, spe: cr.cell.SPEs[seq%cellsim.SPEsPerCell]})
	}
}

// kernelState is where a kernel dispatcher is; it may park in any state but
// kernelRun and kernelNext.
type kernelState uint8

const (
	kernelGet     kernelState = iota // take the next process off the run queue
	kernelRun                        // look at the process' next step
	kernelCompute                    // a compute slice, cut at the quantum
	kernelOffload                    // signal an off-load, then spin-wait for it
	kernelNext                       // the process finished, its quantum expired, or it runs on
	kernelSwitch                     // quantum expired: involuntary switch
)

// kernelDispatcher is one PPE hardware context under the kernel scheduler, a
// step process of the engine: it pops a process from its run queue and
// executes it until it finishes or its quantum expires while other processes
// are runnable.
type kernelDispatcher struct {
	c       *cellRun
	q       *sim.Queue[*kernelProc]
	ppeOnly bool

	state      kernelState
	kp         *kernelProc
	quantumEnd sim.Time
	d          sim.Duration
	charge     cellsim.Charge
	flight     *offload.Flight // the off-load's signals, and whether it is in flight
	offloaded  bool
}

func (k *kernelDispatcher) step(sp *sim.Proc) {
	r, ppe := k.c.parent, k.c.cell.PPE
	cost := r.machine.Cost
	for {
		switch k.state {
		case kernelGet:
			kp, ok := k.q.TryGet(sp)
			if !ok {
				return
			}
			k.kp, k.quantumEnd = kp, sp.Now().Add(cost.KernelQuantum)
			k.state = kernelRun
		case kernelRun:
			kp := k.kp
			step := kp.proc.Steps[kp.stepIdx]
			if step.Kind == workload.OffloadCall && !k.ppeOnly {
				k.state = kernelOffload
				continue
			}
			// Both genuine PPE bursts and (in PPE-only mode) the PPE fallback
			// versions of the likelihood functions are ordinary computation
			// that the quantum can split.
			total := step.Duration
			if step.Kind == workload.OffloadCall {
				total = sim.Duration(float64(step.Fn.PPETime) * step.Scale)
				if kp.consumed == 0 {
					r.rt.Stats.PPEExecutions++
				}
			}
			remaining := total - kp.consumed
			if budget := k.quantumEnd.Sub(sp.Now()); budget < remaining && k.q.Len() > 0 {
				k.d = budget
				kp.consumed += budget
			} else {
				k.d = remaining
				kp.consumed = 0
				kp.stepIdx++
			}
			k.state = kernelCompute
		case kernelCompute:
			if !ppe.Compute(sp, &k.charge, k.d) {
				return
			}
			k.state = kernelNext
		case kernelOffload:
			if !k.offloaded {
				if !ppe.Compute(sp, &k.charge, cost.PPEToSPESignal) {
					return
				}
				step := k.kp.proc.Steps[k.kp.stepIdx]
				r.rt.OffloadSerial(k.kp.spe, step.Fn, step.Scale, k.flight)
				k.offloaded = true
			}
			// The MPI process spin-waits on the completion mailbox while
			// continuing to hold its hardware context: the off-loaded task is
			// far shorter than the quantum, so the kernel never switches here
			// — precisely the pathology EDTLP fixes.
			if !k.flight.Done.Await(sp) {
				return
			}
			k.offloaded = false
			k.kp.stepIdx++
			k.state = kernelNext
		case kernelNext:
			switch kp := k.kp; {
			case kp.stepIdx >= len(kp.proc.Steps):
				r.finish[kp.proc.ID] = sim.Duration(sp.Now())
				k.c.unfinished--
				k.state = kernelGet
			case sp.Now() >= k.quantumEnd && k.q.Len() > 0:
				k.state = kernelSwitch
			default:
				k.state = kernelRun
			}
		case kernelSwitch:
			// Quantum expired with other runnable processes: involuntary
			// switch.
			if !ppe.KernelSwitch(sp, &k.charge) {
				return
			}
			k.q.Put(k.kp)
			k.state = kernelGet
		}
	}
}
