package sched

import (
	"fmt"

	"cellmg/internal/cellsim"
	"cellmg/internal/offload"
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
		m := &mpiProc{c: r.cellFor(p.ID), proc: p, flight: offload.NewFlight(r.eng)}
		r.eng.Spawn(fmt.Sprintf("mpi-%d", p.ID), m.step)
	}
}

// oversubscribed reports whether more MPI processes are multiplexed on this
// Cell's PPE than it has hardware contexts, i.e. whether the user-level
// scheduler actually has to switch between them.
func (c *cellRun) oversubscribed() bool {
	return c.assigned > c.cell.PPE.Contexts()
}

// acquireSPEs asks the pool for the SPEs of proc's next off-load, master
// first, appended to into, and parks sp until SPEs are released if it cannot
// grant them yet; the woken process asks again, so an MGPS mode switch takes
// effect at once for queued off-loads. The caller must not hold a PPE context
// (the EDTLP scheduler blocks only SPE-side work, never a PPE hardware
// thread).
func (c *cellRun) acquireSPEs(sp *sim.Proc, proc int, into []int) ([]int, bool) {
	group, ok := c.pool.Acquire(proc, into)
	if !ok {
		c.speFree.Await(sp)
	}
	return group, ok
}

// releaseSPEs returns the SPEs of a completed off-load and wakes processes
// waiting for SPEs.
func (c *cellRun) releaseSPEs(group []int) {
	c.pool.Release(group)
	c.speFree.Notify()
}

// offload ships one invocation to the granted group: work-shared over all of
// it when it is a loop group, serial on a lone SPE.
func (c *cellRun) offload(group []int, step workload.Step, f *offload.Flight) {
	rt, spes := c.parent.rt, c.cell.SPEs
	if len(group) == 1 {
		rt.OffloadSerial(spes[group[0]], step.Fn, step.Scale, f)
		return
	}
	c.workers = c.workers[:0]
	for _, id := range group[1:] {
		c.workers = append(c.workers, spes[id])
	}
	rt.OffloadWorkShared(spes[group[0]], c.workers, step.Fn, step.Scale, f)
}

// mpiState is where an MPI process is; it may park in any state but mpiStep.
type mpiState uint8

const (
	mpiBind    mpiState = iota // static EDTLP-LLP: claim the group it keeps for life
	mpiContext                 // claim a PPE context, pay for having been switched out
	mpiStep                    // look at the next workload step
	mpiCompute                 // PPE code, or an off-load that failed the granularity test
	mpiSignal                  // the off-load request's PPE-side signalling cost
	mpiSwitch                  // switch away, giving up the context
	mpiGrant                   // claim SPEs for the off-load and submit it
	mpiAwait                   // wait for the off-load to complete
)

// mpiProc is one bootstrap process under the event-driven user-level
// scheduler, a step process of the engine.
type mpiProc struct {
	c     *cellRun
	proc  *workload.Process
	state mpiState
	next  int // the step in hand

	holding, resumed bool  // holds a PPE context; has held one before
	bound, group     []int // the lifetime group (static EDTLP-LLP); this off-load's group
	d                sim.Duration
	charge           cellsim.Charge

	// The storage bound and group hold their SPEs in, and the signals of the
	// off-load in flight: an MPI process has at most one.
	grant  [cellsim.SPEsPerCell]int
	flight *offload.Flight
}

func (m *mpiProc) step(sp *sim.Proc) {
	c, ppe, rt := m.c, m.c.cell.PPE, m.c.parent.rt
	var ok bool
	for {
		switch m.state {
		case mpiBind:
			// Binding first avoids holding a PPE context while waiting for
			// SPEs, which could starve the processes that already own groups.
			if c.persistentGroups {
				if m.bound, ok = c.acquireSPEs(sp, m.proc.ID, m.grant[:0]); !ok {
					return
				}
			}
			m.state = mpiContext
		case mpiContext:
			if !m.holding {
				m.holding = true
				if !ppe.TryAcquireContext(sp) {
					return // woken holding it
				}
			}
			// Resuming after having been switched out costs cold caches and
			// TLBs when the PPE is oversubscribed with more MPI processes than
			// hardware contexts.
			if m.resumed && c.oversubscribed() && !ppe.Resume(sp, &m.charge) {
				return
			}
			m.resumed = true
			m.state = mpiStep
		case mpiStep:
			if m.next == len(m.proc.Steps) {
				if m.holding {
					ppe.ReleaseContext()
				}
				if m.bound != nil {
					c.releaseSPEs(m.bound)
				}
				c.unfinished--
				c.parent.finish[m.proc.ID] = sim.Duration(sp.Now())
				return
			}
			switch step := m.proc.Steps[m.next]; {
			case !m.holding:
				m.state = mpiContext
			case step.Kind == workload.PPECompute:
				m.d, m.state = step.Duration, mpiCompute
			case !rt.GranularityOK(step.Fn, true):
				// Tasks too fine to be worth shipping run on the PPE instead
				// (the runtime keeps PPE versions of every off-loadable
				// function for exactly this purpose).
				m.d, m.state = rt.RunOnPPE(step.Fn, step.Scale), mpiCompute
			default:
				m.state = mpiSignal
			}
		case mpiCompute:
			if !ppe.Compute(sp, &m.charge, m.d) {
				return
			}
			m.next++
			m.state = mpiStep
		case mpiSignal:
			// The off-load request: the scheduler charges the signalling cost
			// on the PPE side, then switches to another MPI process while the
			// SPEs work.
			if !ppe.Compute(sp, &m.charge, c.parent.machine.Cost.PPEToSPESignal) {
				return
			}
			m.state = mpiSwitch
		case mpiSwitch:
			if c.oversubscribed() && !ppe.ContextSwitch(sp, &m.charge) {
				return
			}
			ppe.ReleaseContext()
			m.holding = false
			m.state = mpiGrant
		case mpiGrant:
			if m.group = m.bound; m.group == nil {
				if m.group, ok = c.acquireSPEs(sp, m.proc.ID, m.grant[:0]); !ok {
					return
				}
			}
			c.offload(m.group, m.proc.Steps[m.next], m.flight)
			m.state = mpiAwait
		case mpiAwait:
			if !m.flight.Done.Await(sp) {
				return
			}
			if m.bound == nil {
				c.releaseSPEs(m.group)
			}
			c.pool.Depart(m.proc.ID, c.unfinished)
			m.next++
			m.state = mpiStep
		}
	}
}
