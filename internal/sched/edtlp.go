package sched

import (
	"fmt"

	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// spawnEventDriven creates one simulated process per bootstrap, scheduled by
// the user-level event-driven scheduler: a process holds a PPE hardware
// context only while it executes PPE code, and voluntarily switches away
// (1.5 us) whenever it off-loads a task, so that other MPI processes can feed
// the remaining SPEs. This is the EDTLP execution model; the static hybrid
// and MGPS schedulers reuse it and differ only in the Decision that governs
// how many SPEs each off-loaded task receives.
func (r *run) spawnEventDriven() {
	procs := r.opt.Workload.Job(r.opt.Bootstraps)
	for _, p := range procs {
		cr := r.cellFor(p.ID)
		cr.assigned++
		cr.unfinished++
	}
	for _, p := range procs {
		proc := p
		cr := r.cellFor(p.ID)
		r.eng.Spawn(fmt.Sprintf("mpi-%d", p.ID), func(sp *sim.Proc) {
			cr.runEventDriven(sp, proc)
			r.finish[proc.ID] = sim.Duration(sp.Now())
		})
	}
}

// oversubscribed reports whether more MPI processes are multiplexed on this
// Cell's PPE than it has hardware contexts, i.e. whether the user-level
// scheduler actually has to switch between them.
func (c *cellRun) oversubscribed() bool {
	return c.assigned > c.cell.PPE.Contexts()
}

// acquireSPEs claims the SPEs the pool grants proc's next off-load, master
// first, waiting while too few are free. The caller must not hold a PPE
// context (the EDTLP scheduler blocks only SPE-side work, never a PPE
// hardware thread). The pool is asked again after every wait, so an MGPS
// mode switch takes effect immediately for queued off-loads.
func (c *cellRun) acquireSPEs(sp *sim.Proc, proc *workload.Process) []int {
	for {
		if group, ok := c.pool.Acquire(proc.ID); ok {
			return group
		}
		c.speFree.Wait(sp)
	}
}

// releaseSPEs returns the SPEs of a completed off-load and wakes processes
// waiting for SPEs.
func (c *cellRun) releaseSPEs(group []int) {
	c.pool.Release(group)
	c.speFree.Notify()
}

// offload ships one invocation to the granted group: work-shared over all of
// it when it is a loop group, serial on a lone SPE.
func (c *cellRun) offload(group []int, step workload.Step) *sim.Signal {
	rt, spes := c.parent.rt, c.cell.SPEs
	if len(group) == 1 {
		return rt.OffloadSerial(spes[group[0]], step.Fn, step.Scale)
	}
	c.workers = c.workers[:0]
	for _, id := range group[1:] {
		c.workers = append(c.workers, spes[id])
	}
	return rt.OffloadWorkShared(spes[group[0]], c.workers, step.Fn, step.Scale)
}

// runEventDriven executes one bootstrap process under the event-driven
// user-level scheduler.
func (c *cellRun) runEventDriven(sp *sim.Proc, proc *workload.Process) {
	ppe := c.cell.PPE
	cost := c.parent.machine.Cost
	rt := c.parent.rt

	// Under the static EDTLP-LLP scheme each process binds its SPE group for
	// its entire lifetime before touching the PPE (binding first avoids
	// holding a PPE context while waiting for SPEs, which could starve the
	// processes that already own groups).
	var bound []int
	if c.persistentGroups {
		bound = c.acquireSPEs(sp, proc)
	}

	holding := false
	first := true
	acquire := func() {
		if !holding {
			ppe.AcquireContext(sp)
			holding = true
			// Resuming after having been switched out costs cold caches and
			// TLBs when the PPE is oversubscribed with more MPI processes
			// than hardware contexts.
			if !first && c.oversubscribed() {
				ppe.Resume(sp)
			}
			first = false
		}
	}
	release := func(chargeSwitch bool) {
		if holding {
			if chargeSwitch && c.oversubscribed() {
				ppe.ContextSwitch(sp)
			}
			ppe.ReleaseContext()
			holding = false
		}
	}

	acquire()
	for _, step := range proc.Steps {
		switch step.Kind {
		case workload.PPECompute:
			acquire()
			ppe.Compute(sp, step.Duration)

		case workload.OffloadCall:
			acquire()
			// Granularity test: tasks too fine to be worth shipping run on
			// the PPE instead (the runtime keeps PPE versions of every
			// off-loadable function for exactly this purpose).
			if !rt.GranularityOK(step.Fn, true) {
				ppe.Compute(sp, rt.RunOnPPE(step.Fn, step.Scale))
				continue
			}
			// The off-load request: the scheduler charges the signalling
			// cost on the PPE side, then switches to another MPI process
			// while the SPEs work.
			ppe.Compute(sp, cost.PPEToSPESignal)
			release(true)

			group := bound
			if group == nil {
				group = c.acquireSPEs(sp, proc)
			}
			c.offload(group, step).Wait(sp)
			if bound == nil {
				c.releaseSPEs(group)
			}
			c.pool.Depart(proc.ID, c.unfinished)
		}
	}
	release(false)
	if bound != nil {
		c.releaseSPEs(bound)
	}
	c.unfinished--
}
