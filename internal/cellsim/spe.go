package cellsim

import (
	"fmt"

	"cellmg/internal/sim"
)

// SPE models one Synergistic Processing Element: a SIMD core that can only
// execute code and access data resident in its 256 KB local store, moving
// everything else over DMA through its Memory Flow Controller.
//
// An SPE runs no control flow of its own. It executes the programs submitted
// to it strictly in FIFO order, one op at a time: it reads the next op from
// its mailbox, runs it, and moves on. This mirrors how the real runtime ships
// a code module to the SPE once and then sends it kernel invocations through
// its mailbox.
type SPE struct {
	machine *Machine
	cell    *Cell
	// Index is the SPE's position within its Cell (0-7); Global is its
	// position on the blade (cell-major).
	Index  int
	Global int

	name    string // "cellC.speS", the component name in trace streams
	mailbox *sim.Queue[Op]
	pending int // programs submitted and not yet begun
	running bool

	// The op in hand, carried across the step calls its waits span: phase 0
	// is none (read the next op), 1 not begun, 2 waiting for an EIB slot, 3
	// occupied since start.
	op    Op
	phase int
	start sim.Time

	busy         sim.Duration
	tasksRun     int
	moduleLoads  int
	loadedModule Module
	moduleSize   int
}

// Module identifies an SPE code module, numbered by the off-load runtime; 0
// is none.
type Module uint8

type opKind uint8

const (
	opEnd opKind = iota // closes every program: counts it, fires its done signal
	opLoad
	opKernelStartup
	opDMA
	opCompute
	opWait
	opNotifyPPE
	opSendPass
)

// Op is one step of an SPE program: an SPU computation, an MFC transfer, or a
// signal. Build ops with LoadModule, KernelStartup, DMAGet, DMAPut, Compute,
// WaitSignal, NotifyPPE and SendPass.
type Op struct {
	kind   opKind
	module Module
	n      int64 // bytes, or nanoseconds of computation
	sig    *sim.Signal
}

// LoadModule makes code module m of size bytes resident in the local store,
// charging the DMA cost of shipping its text segment when it is not already
// resident. Re-loading the already-resident module is free, which is exactly
// the t_code = 0 property the paper's runtime exploits by pre-loading
// annotated functions. Submit refuses a module larger than the local store.
func LoadModule(m Module, size int) Op { return Op{kind: opLoad, module: m, n: int64(size)} }

// KernelStartup charges the fixed cost of dispatching one kernel invocation
// whose code is already resident (argument unpacking, mailbox read, branch).
func KernelStartup() Op { return Op{kind: opKernelStartup} }

// DMAGet models fetching size bytes from main memory (or another local
// store) into this SPE's local store, competing for an EIB slot.
func DMAGet(size int) Op { return Op{kind: opDMA, n: int64(size)} }

// DMAPut models committing size bytes from this SPE's local store to main
// memory, competing for an EIB slot.
func DMAPut(size int) Op { return Op{kind: opDMA, n: int64(size)} }

// Compute charges d of SPU computation.
func Compute(d sim.Duration) Op { return Op{kind: opCompute, n: int64(d)} }

// WaitSignal blocks the SPE until the signal fires (spinning on a signal word
// in its local store). The waiting time is not charged as busy time.
func WaitSignal(sig *sim.Signal) Op { return Op{kind: opWait, sig: sig} }

// NotifyPPE delivers a small completion message to the PPE side after the
// SPE->PPE signalling latency. The SPE does not stall: the message travels
// while the SPE moves on (the runtime uses a mailbox write).
func NotifyPPE(sig *sim.Signal) Op { return Op{kind: opNotifyPPE, sig: sig} }

// SendPass models the direct SPE-to-SPE delivery of a small Pass structure
// (<= 128 bytes) into the target SPE's local store: an mfc_put of the
// structure followed by the target noticing the updated signal word. The
// sending SPE is occupied only for the DMA issue; delivery happens after the
// SPE-to-SPE signalling latency.
func SendPass(target *sim.Signal) Op { return Op{kind: opSendPass, sig: target} }

func newSPE(m *Machine, cell *Cell, index int) *SPE {
	s := &SPE{
		machine: m,
		cell:    cell,
		Index:   index,
		Global:  cell.Index*SPEsPerCell + index,
	}
	s.name = fmt.Sprintf("cell%d.spe%d", cell.Index, index)
	s.mailbox = sim.NewQueue[Op](m.Eng)
	m.Eng.SpawnStep(s.name, s.step)
	return s
}

// step executes ops until one has to wait, and returns; the engine calls it
// again when the wait is over.
func (s *SPE) step(p *sim.Proc) {
	cost := s.machine.Cost
	for {
		if s.phase == 0 {
			op, ok := s.mailbox.TryGet(p)
			if !ok {
				return
			}
			if !s.running {
				s.running = true
				s.pending--
			}
			s.op, s.phase = op, 1
		}
		switch op := &s.op; op.kind {
		case opLoad:
			if s.phase == 1 {
				if s.loadedModule == op.module {
					break
				}
				s.loadedModule, s.moduleSize = op.module, int(op.n)
				s.moduleLoads++
			}
			fallthrough
		case opDMA:
			if op.n > 0 && !s.occupy(p, cost.DMATime(int(op.n)), s.cell.EIB, "dma") {
				return
			}
		case opCompute:
			if op.n > 0 && !s.occupy(p, sim.Duration(op.n), nil, "compute") {
				return
			}
		case opKernelStartup:
			if d := cost.SPEKernelStartup; d > 0 && !s.occupy(p, d, nil, "compute") {
				return
			}
		case opWait:
			if !op.sig.Await(p) {
				return
			}
		case opNotifyPPE:
			op.sig.FireAfter(cost.SPEToPPESignal)
		case opSendPass:
			op.sig.FireAfter(cost.SPEToSPESignal)
		case opEnd:
			s.running = false
			s.tasksRun++
			if op.sig != nil {
				op.sig.Fire()
			}
		}
		s.phase = 0
	}
}

// occupy is the one place SPE time is charged: it holds the SPE for d (and an
// EIB slot, when eib is non-nil), counts it as busy and reports it to the
// trace hook, so the traced SPE lane adds up to BusyTime. False means parked.
func (s *SPE) occupy(p *sim.Proc, d sim.Duration, eib *sim.Resource, kind string) bool {
	switch s.phase {
	case 1:
		s.phase = 2
		if eib != nil && !eib.TryAcquire(p, 1) {
			return false
		}
		fallthrough
	case 2:
		s.start = p.Now()
		s.busy += d
		s.phase = 3
		if !p.Sleep(d) {
			return false
		}
	}
	if eib != nil {
		eib.Release(1)
	}
	s.machine.emit(s.name, s.start, p.Now(), kind)
	return true
}

// Cell returns the Cell this SPE belongs to.
func (s *SPE) Cell() *Cell { return s.cell }

// Submit enqueues a program for the SPE; done, when non-nil, fires the moment
// it completes. The SPE copies the ops, so prog may be reused at once. A
// program that loads a module larger than the local store is refused whole.
func (s *SPE) Submit(prog []Op, done *sim.Signal) error {
	for _, op := range prog {
		if op.kind == opLoad && op.n > int64(s.machine.Cost.LocalStoreSize) {
			return fmt.Errorf("cellsim: module %d (%d bytes) exceeds the %d byte local store",
				op.module, op.n, s.machine.Cost.LocalStoreSize)
		}
	}
	s.pending++
	for _, op := range prog {
		s.mailbox.Put(op)
	}
	s.mailbox.Put(Op{kind: opEnd, sig: done})
	return nil
}

// Busy reports whether the SPE is currently executing a program or has
// programs queued.
func (s *SPE) Busy() bool { return s.running || s.pending > 0 }

// QueueLength returns the number of programs waiting to run (not counting
// the one currently running).
func (s *SPE) QueueLength() int { return s.pending }

// BusyTime returns the cumulative time the SPE spent computing or moving
// data.
func (s *SPE) BusyTime() sim.Duration { return s.busy }

// TasksRun returns the number of completed programs.
func (s *SPE) TasksRun() int { return s.tasksRun }

// ModuleLoads returns how many times a code module was (re)loaded into the
// local store.
func (s *SPE) ModuleLoads() int { return s.moduleLoads }

// LoadedModule returns the code module currently resident in the local store
// (0 if none).
func (s *SPE) LoadedModule() Module { return s.loadedModule }

// LocalStoreFree returns the local store space left for stack, heap and
// buffered data after the resident code module.
func (s *SPE) LocalStoreFree() int { return s.machine.Cost.LocalStoreSize - s.moduleSize }
