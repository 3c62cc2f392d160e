package cellsim

import (
	"fmt"

	"cellmg/internal/sim"
)

// PPE models the Power Processing Element of one Cell: a dual-thread (SMT)
// PowerPC core. The PPE itself does not schedule anything; the scheduler
// models in package sched run dispatcher processes on its SMT contexts and
// charge time with Compute / ContextSwitch / Resume / KernelSwitch. Each
// reports false while it has the process parked; the woken process calls
// again with the same Charge, and that call reports true.
type PPE struct {
	machine *Machine
	lane    // "cellC.ppe"; busy is cumulative context-occupied time

	contexts *sim.Resource // SMT hardware contexts
	active   int           // contexts currently executing Compute

	switches       int // voluntary (user-level) context switches performed
	kernelSwitches int // involuntary (kernel) context switches performed
}

func newPPE(m *Machine, cell *Cell) *PPE {
	name := fmt.Sprintf("cell%d.ppe", cell.Index)
	return &PPE{
		machine:  m,
		lane:     lane{name: name},
		contexts: sim.NewResource(m.Eng, name, m.Cost.PPEContexts),
	}
}

// Contexts returns the number of SMT hardware contexts.
func (p *PPE) Contexts() int { return p.machine.Cost.PPEContexts }

// Switches returns the number of voluntary user-level context switches
// charged with ContextSwitch.
func (p *PPE) Switches() int { return p.switches }

// KernelSwitches returns the number of kernel-level switches charged with
// KernelSwitch.
func (p *PPE) KernelSwitches() int { return p.kernelSwitches }

// TryAcquireContext claims a free SMT hardware context for the calling
// process and reports true, or parks the process until it can have one; as
// with sim.Resource.TryAcquire, the woken process holds the context.
func (p *PPE) TryAcquireContext(proc *sim.Proc) bool { return p.contexts.TryAcquire(proc, 1) }

// ReleaseContext releases a context claimed with TryAcquireContext.
func (p *PPE) ReleaseContext() { p.contexts.Release(1) }

// Compute charges d of PPE computation to the calling process. If the other
// SMT context is computing when it begins, the duration is stretched by the
// SMT contention factor: the two hardware threads share the PPE's in-order
// pipeline, so co-scheduled compute phases slow each other down. The caller
// must already hold a hardware context.
func (p *PPE) Compute(proc *sim.Proc, c *Charge, d sim.Duration) bool {
	if d <= 0 {
		return true
	}
	if c.phase == 0 {
		if f := p.machine.Cost.SMTContention; p.active > 0 && f > 1.0 {
			d = sim.Duration(float64(d) * f)
		}
		p.active++
	}
	if !p.machine.occupy(proc, c, &p.lane, d, nil, "compute") {
		return false
	}
	p.active--
	return true
}

// ContextSwitch charges the cost of one voluntary user-level context switch
// (switching between MPI processes in the EDTLP scheduler).
func (p *PPE) ContextSwitch(proc *sim.Proc, c *Charge) bool {
	if !p.machine.occupy(proc, c, &p.lane, p.machine.Cost.ContextSwitch, nil, "switch") {
		return false
	}
	p.switches++
	return true
}

// Resume charges the indirect cost of bringing a switched-out MPI process
// back onto a PPE context (cold caches/TLBs plus user-level scheduler
// dispatch); see CostModel.ResumePenalty.
func (p *PPE) Resume(proc *sim.Proc, c *Charge) bool {
	d := p.machine.Cost.ResumePenalty
	return d <= 0 || p.machine.occupy(proc, c, &p.lane, d, nil, "switch")
}

// KernelSwitch charges the cost of one involuntary kernel-level context
// switch (quantum expiry under the native OS scheduler), which is more
// expensive than the user-level switch because it crosses address spaces and
// pollutes caches and TLBs.
func (p *PPE) KernelSwitch(proc *sim.Proc, c *Charge) bool {
	if !p.machine.occupy(proc, c, &p.lane, p.machine.Cost.KernelSwitch, nil, "switch") {
		return false
	}
	p.kernelSwitches++
	return true
}
