package cellsim

import (
	"fmt"

	"cellmg/internal/sim"
)

// SPE models one Synergistic Processing Element: a SIMD core that can only
// execute code and access data resident in its 256 KB local store, moving
// everything else over DMA through its Memory Flow Controller.
//
// An SPE executes work submitted to it strictly in FIFO order; each work item
// is a closure that runs "on" the SPE and charges time through an SPEContext.
// This mirrors how the real runtime ships a code module to the SPE once and
// then sends it kernel invocations through its mailbox.
type SPE struct {
	machine *Machine
	cell    *Cell
	// Index is the SPE's position within its Cell (0-7); Global is its
	// position on the blade (cell-major).
	Index  int
	Global int

	name    string // "cellC.speS", the component name in trace streams
	cmds    *sim.Queue[speCommand]
	ctx     SPEContext // the one context every work item runs with
	running bool

	busy         sim.Duration
	tasksRun     int
	moduleLoads  int
	loadedModule string
	moduleSize   int
}

type speCommand struct {
	fn   func(c *SPEContext)
	done *sim.Signal
}

func newSPE(m *Machine, cell *Cell, index int) *SPE {
	s := &SPE{
		machine: m,
		cell:    cell,
		Index:   index,
		Global:  cell.Index*SPEsPerCell + index,
	}
	s.name = fmt.Sprintf("cell%d.spe%d", cell.Index, index)
	s.cmds = sim.NewQueue[speCommand](m.Eng)
	m.Eng.Spawn(s.name, s.run)
	return s
}

func (s *SPE) run(p *sim.Proc) {
	s.ctx = SPEContext{spe: s, proc: p}
	for {
		cmd := s.cmds.Get(p)
		s.running = true
		cmd.fn(&s.ctx)
		s.running = false
		s.tasksRun++
		if cmd.done != nil {
			cmd.done.Fire()
		}
	}
}

// Cell returns the Cell this SPE belongs to.
func (s *SPE) Cell() *Cell { return s.cell }

// Submit enqueues a work item for the SPE; done, when non-nil, fires the
// moment the item completes. The closure runs on the SPE's own simulated
// process and may use every SPEContext primitive.
func (s *SPE) Submit(fn func(c *SPEContext), done *sim.Signal) {
	s.cmds.Put(speCommand{fn: fn, done: done})
}

// Busy reports whether the SPE is currently executing a work item or has
// items queued.
func (s *SPE) Busy() bool { return s.running || s.cmds.Len() > 0 }

// QueueLength returns the number of work items waiting to run (not counting
// the one currently running).
func (s *SPE) QueueLength() int { return s.cmds.Len() }

// BusyTime returns the cumulative time the SPE spent computing or moving
// data.
func (s *SPE) BusyTime() sim.Duration { return s.busy }

// TasksRun returns the number of completed work items.
func (s *SPE) TasksRun() int { return s.tasksRun }

// ModuleLoads returns how many times a code module was (re)loaded into the
// local store.
func (s *SPE) ModuleLoads() int { return s.moduleLoads }

// LoadedModule returns the name of the code module currently resident in the
// local store ("" if none).
func (s *SPE) LoadedModule() string { return s.loadedModule }

// LocalStoreFree returns the local store space left for stack, heap and
// buffered data after the resident code module.
func (s *SPE) LocalStoreFree() int { return s.machine.Cost.LocalStoreSize - s.moduleSize }

// SPEContext is the view of the machine available to code running on an SPE.
type SPEContext struct {
	spe  *SPE
	proc *sim.Proc
}

// Now returns the current virtual time.
func (c *SPEContext) Now() sim.Time { return c.proc.Now() }

// Compute charges d of SPU computation.
func (c *SPEContext) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	start := c.proc.Now()
	c.spe.busy += d
	c.proc.Delay(d)
	c.spe.machine.emit(c.spe.name, start, c.proc.Now(), "compute")
}

// dma charges one MFC transfer of size bytes, competing for an EIB slot.
func (c *SPEContext) dma(size int) {
	if size <= 0 {
		return
	}
	cost := c.spe.machine.Cost
	eib := c.spe.cell.EIB
	d := cost.DMATime(size)
	eib.Acquire(c.proc, 1)
	start := c.proc.Now()
	c.spe.busy += d
	c.proc.Delay(d)
	eib.Release(1)
	c.spe.machine.emit(c.spe.name, start, c.proc.Now(), "dma")
}

// DMAGet models fetching size bytes from main memory (or another local
// store) into this SPE's local store.
func (c *SPEContext) DMAGet(size int) { c.dma(size) }

// DMAPut models committing size bytes from this SPE's local store to main
// memory.
func (c *SPEContext) DMAPut(size int) { c.dma(size) }

// KernelStartup charges the fixed cost of dispatching one kernel invocation
// whose code is already resident (argument unpacking, mailbox read, branch).
func (c *SPEContext) KernelStartup() {
	c.Compute(c.spe.machine.Cost.SPEKernelStartup)
}

// LoadModule makes the named code module resident in the local store,
// charging the DMA cost of shipping its text segment when it is not already
// resident. It returns an error if the module cannot fit. Re-loading the
// already-resident module is free, which is exactly the t_code = 0 property
// the paper's runtime exploits by pre-loading annotated functions.
func (c *SPEContext) LoadModule(name string, size int) error {
	if size > c.spe.machine.Cost.LocalStoreSize {
		return fmt.Errorf("cellsim: module %q (%d bytes) exceeds the %d byte local store",
			name, size, c.spe.machine.Cost.LocalStoreSize)
	}
	if c.spe.loadedModule == name {
		return nil
	}
	c.spe.loadedModule = name
	c.spe.moduleSize = size
	c.spe.moduleLoads++
	c.dma(size)
	return nil
}

// NotifyPPE delivers a small completion message to the PPE side after the
// SPE->PPE signalling latency. The SPE does not stall: the message travels
// while the SPE moves on (the runtime uses a mailbox write).
func (c *SPEContext) NotifyPPE(sig *sim.Signal) {
	sig.FireAfter(c.spe.machine.Cost.SPEToPPESignal)
}

// SendPass models the direct SPE-to-SPE delivery of a small Pass structure
// (<= 128 bytes) into the target SPE's local store: an mfc_put of the
// structure followed by the target noticing the updated signal word. The
// sending SPE is occupied only for the DMA issue; delivery happens after the
// SPE-to-SPE signalling latency.
func (c *SPEContext) SendPass(target *sim.Signal) {
	target.FireAfter(c.spe.machine.Cost.SPEToSPESignal)
}

// WaitSignal blocks the SPE until the signal fires (spinning on a signal word
// in its local store). The waiting time is not charged as busy time.
func (c *SPEContext) WaitSignal(sig *sim.Signal) { sig.Wait(c.proc) }
