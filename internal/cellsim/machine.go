package cellsim

import (
	"fmt"

	"cellmg/internal/sim"
)

// SPEsPerCell is the number of Synergistic Processing Elements on one Cell
// Broadband Engine chip.
const SPEsPerCell = 8

// TraceFunc receives one interval of activity on a machine component. It is
// invoked after the interval has elapsed (end == current virtual time).
// Components are named "cellC.speS" and "cellC.ppe"; kinds are "compute"
// (SPU or PPE computation), "dma" (an MFC transfer, code shipping included)
// and "switch" (a PPE context switch: user-level, kernel-level, or the resume
// penalty of a switched-out process). Every interval a component counts as
// busy is reported, so a lane's intervals sum to the component's BusyTime.
type TraceFunc func(component string, start, end sim.Time, kind string)

// Machine is a Cell blade: one or more Cell processors sharing main memory.
// The paper evaluates a single Cell (Sections 5.1-5.4, 5.6) and a dual-Cell
// blade (Section 5.5).
type Machine struct {
	Eng   *sim.Engine
	Cost  *CostModel
	Cells []*Cell

	// Trace, when non-nil, receives every interval of activity; sched's
	// TraceGantt turns the stream into an activity chart.
	Trace TraceFunc
}

// lane is what a component that is charged time keeps: its trace name and
// busy time.
type lane struct {
	name string
	busy sim.Duration
}

// BusyTime returns the cumulative time charged to the component: the sum of
// its traced intervals.
func (l *lane) BusyTime() sim.Duration { return l.busy }

// Charge is an interval a process is charging to a component, carried across
// its waits. The zero value is an interval not begun; occupy resets it.
type Charge struct {
	phase uint8 // 0 not begun, 1 waiting for a resource unit, 2 occupied since start
	start sim.Time
}

// occupy is the one place a component's time is charged: it holds l's
// component for d (after taking a unit of res, when res is non-nil), counts d
// as busy and reports the interval to the trace hook, so a traced lane adds
// up to BusyTime. False means the process is parked; once woken it calls
// again with the same Charge, lane and res (d is read only before the
// interval begins), and the call that reports true has ended the interval.
func (m *Machine) occupy(p *sim.Proc, c *Charge, l *lane, d sim.Duration, res *sim.Resource, kind string) bool {
	switch c.phase {
	case 0:
		c.phase = 1
		if res != nil && !res.TryAcquire(p, 1) {
			return false
		}
		fallthrough
	case 1:
		c.start = p.Now()
		l.busy += d
		c.phase = 2
		if !p.Sleep(d) {
			return false
		}
	}
	if res != nil {
		res.Release(1)
	}
	if m.Trace != nil && p.Now() > c.start {
		m.Trace(l.name, c.start, p.Now(), kind)
	}
	*c = Charge{}
	return true
}

// Cell is one Cell Broadband Engine chip: a PPE, eight SPEs, and the EIB
// connecting them to each other and to memory.
type Cell struct {
	Index int
	PPE   *PPE
	SPEs  []*SPE
	EIB   *sim.Resource
}

// NewMachine builds a blade with numCells Cell processors on the given
// engine. The cost model must not be nil.
func NewMachine(eng *sim.Engine, cost *CostModel, numCells int) *Machine {
	if numCells <= 0 {
		panic("cellsim: a machine needs at least one Cell")
	}
	if cost == nil {
		panic("cellsim: nil cost model")
	}
	m := &Machine{Eng: eng, Cost: cost}
	for ci := 0; ci < numCells; ci++ {
		cell := &Cell{
			Index: ci,
			EIB:   sim.NewResource(eng, fmt.Sprintf("cell%d.eib", ci), cost.EIBConcurrentTransfers),
		}
		cell.PPE = newPPE(m, cell)
		for si := 0; si < SPEsPerCell; si++ {
			cell.SPEs = append(cell.SPEs, newSPE(m, cell, si))
		}
		m.Cells = append(m.Cells, cell)
	}
	return m
}

// NumSPEs returns the total number of SPEs across all Cells.
func (m *Machine) NumSPEs() int { return len(m.Cells) * SPEsPerCell }

// NumPPEContexts returns the total number of PPE SMT hardware contexts.
func (m *Machine) NumPPEContexts() int { return len(m.Cells) * m.Cost.PPEContexts }

// AllSPEs returns every SPE on the blade in a stable order (cell-major).
func (m *Machine) AllSPEs() []*SPE {
	out := make([]*SPE, 0, m.NumSPEs())
	for _, c := range m.Cells {
		out = append(out, c.SPEs...)
	}
	return out
}

// SPE returns the SPE with the given global index (cell-major order).
func (m *Machine) SPE(global int) *SPE {
	cell := global / SPEsPerCell
	return m.Cells[cell].SPEs[global%SPEsPerCell]
}

// Utilization summarises how busy the machine's components were between the
// start of the simulation and the current virtual time.
type Utilization struct {
	SPEBusy     []float64 // per-SPE busy fraction, global index order
	MeanSPEBusy float64
	PPEBusy     []float64 // per-Cell PPE busy fraction (averaged over contexts)
}

// Utilization computes the busy fractions at the current virtual time.
func (m *Machine) Utilization() Utilization {
	var u Utilization
	now := float64(m.Eng.Now())
	var sum float64
	for _, spe := range m.AllSPEs() {
		f := 0.0
		if now > 0 {
			f = float64(spe.BusyTime()) / now
		}
		u.SPEBusy = append(u.SPEBusy, f)
		sum += f
	}
	if n := len(u.SPEBusy); n > 0 {
		u.MeanSPEBusy = sum / float64(n)
	}
	for _, c := range m.Cells {
		f := 0.0
		if now > 0 {
			f = float64(c.PPE.BusyTime()) / (now * float64(m.Cost.PPEContexts))
		}
		u.PPEBusy = append(u.PPEBusy, f)
	}
	return u
}
