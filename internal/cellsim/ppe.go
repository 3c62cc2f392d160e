package cellsim

import (
	"fmt"

	"cellmg/internal/sim"
)

// PPE models the Power Processing Element of one Cell: a dual-thread (SMT)
// PowerPC core. The PPE itself does not schedule anything; the scheduler
// models in package sched run one dispatcher process per SMT context and use
// Compute / ContextSwitch / KernelSwitch to charge time.
type PPE struct {
	machine *Machine
	name    string // "cellC.ppe", the component name in trace streams

	contexts *sim.Resource // SMT hardware contexts
	active   int           // contexts currently executing Compute
	busy     sim.Duration  // cumulative context-occupied compute time

	switches       int // voluntary (user-level) context switches performed
	kernelSwitches int // involuntary (kernel) context switches performed
}

func newPPE(m *Machine, cell *Cell) *PPE {
	name := fmt.Sprintf("cell%d.ppe", cell.Index)
	return &PPE{
		machine:  m,
		name:     name,
		contexts: sim.NewResource(m.Eng, name, m.Cost.PPEContexts),
	}
}

// Contexts returns the number of SMT hardware contexts.
func (p *PPE) Contexts() int { return p.machine.Cost.PPEContexts }

// BusyTime returns the cumulative compute time charged across all contexts.
func (p *PPE) BusyTime() sim.Duration { return p.busy }

// Switches returns the number of voluntary user-level context switches
// charged with ContextSwitch.
func (p *PPE) Switches() int { return p.switches }

// KernelSwitches returns the number of kernel-level switches charged with
// KernelSwitch.
func (p *PPE) KernelSwitches() int { return p.kernelSwitches }

// AcquireContext blocks the calling dispatcher process until an SMT hardware
// context is free and claims it. Scheduler models that pin one dispatcher
// process per context acquire once at start-up; models that multiplex more
// software threads than contexts acquire/release around each burst.
func (p *PPE) AcquireContext(proc *sim.Proc) { p.contexts.Acquire(proc, 1) }

// ReleaseContext releases a context claimed with AcquireContext.
func (p *PPE) ReleaseContext() { p.contexts.Release(1) }

// charge occupies the calling context for d: the one place PPE time is
// delayed, counted as busy and reported to the trace hook, so the traced PPE
// lane always adds up to BusyTime.
func (p *PPE) charge(proc *sim.Proc, d sim.Duration, kind string) {
	start := proc.Now()
	p.busy += d
	proc.Delay(d)
	p.machine.emit(p.name, start, proc.Now(), kind)
}

// Compute charges d of PPE computation to the calling process. If the other
// SMT context is computing at the same time, the duration is stretched by
// the SMT contention factor: the two hardware threads share the PPE's
// in-order pipeline, so co-scheduled compute phases slow each other down.
// The caller must already hold a hardware context.
func (p *PPE) Compute(proc *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	factor := 1.0
	if p.active > 0 && p.machine.Cost.SMTContention > 1.0 {
		factor = p.machine.Cost.SMTContention
	}
	p.active++
	p.charge(proc, sim.Duration(float64(d)*factor), "compute")
	p.active--
}

// ContextSwitch charges the cost of one voluntary user-level context switch
// (switching between MPI processes in the EDTLP scheduler).
func (p *PPE) ContextSwitch(proc *sim.Proc) {
	p.switches++
	p.charge(proc, p.machine.Cost.ContextSwitch, "switch")
}

// Resume charges the indirect cost of bringing a switched-out MPI process
// back onto a PPE context (cold caches/TLBs plus user-level scheduler
// dispatch); see CostModel.ResumePenalty.
func (p *PPE) Resume(proc *sim.Proc) {
	if d := p.machine.Cost.ResumePenalty; d > 0 {
		p.charge(proc, d, "switch")
	}
}

// KernelSwitch charges the cost of one involuntary kernel-level context
// switch (quantum expiry under the native OS scheduler), which is more
// expensive than the user-level switch because it crosses address spaces and
// pollutes caches and TLBs.
func (p *PPE) KernelSwitch(proc *sim.Proc) {
	p.kernelSwitches++
	p.charge(proc, p.machine.Cost.KernelSwitch, "switch")
}
