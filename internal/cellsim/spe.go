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
// its mailbox. The mailbox is the SPE's program buffer: Submit appends a
// program's ops, the SPE runs them where they lie, and it parks on a
// Condition once it has run them all.
type SPE struct {
	machine *Machine
	cell    *Cell
	// Index is the SPE's position within its Cell (0-7); Global is its
	// position on the blade (cell-major).
	Index  int
	Global int

	lane // "cellC.speS"; busy is time spent computing or moving data

	pending int // programs submitted and not yet begun
	running bool

	// The submitted ops, ops[pc] being the one in hand; the condition the
	// idle SPE waits on for the next Submit; and the interval the op in hand
	// is charging, carried across the step calls its waits span.
	ops       []Op
	pc        int
	submitted *sim.Condition
	charge    Charge

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
	s.submitted = sim.NewCondition(m.Eng)
	m.Eng.Spawn(s.name, s.step)
	return s
}

// step executes ops until one has to wait, and returns; the engine calls it
// again when the wait is over. With every submitted op run it empties the
// buffer, keeping its storage for the next program, and parks until Submit.
func (s *SPE) step(p *sim.Proc) {
	m := s.machine
	for {
		if s.pc == len(s.ops) {
			s.ops, s.pc = s.ops[:0], 0
			s.submitted.Await(p)
			return
		}
		if !s.running {
			s.running = true
			s.pending--
		}
		switch op := &s.ops[s.pc]; op.kind {
		case opLoad:
			if s.charge.phase == 0 { // not begun
				if s.loadedModule == op.module {
					break
				}
				s.loadedModule, s.moduleSize = op.module, int(op.n)
				s.moduleLoads++
			}
			fallthrough
		case opDMA:
			if op.n > 0 && !m.occupy(p, &s.charge, &s.lane, m.Cost.DMATime(int(op.n)), s.cell.EIB, "dma") {
				return
			}
		case opCompute:
			if op.n > 0 && !m.occupy(p, &s.charge, &s.lane, sim.Duration(op.n), nil, "compute") {
				return
			}
		case opKernelStartup:
			if d := m.Cost.SPEKernelStartup; d > 0 && !m.occupy(p, &s.charge, &s.lane, d, nil, "compute") {
				return
			}
		case opWait:
			if !op.sig.Await(p) {
				return
			}
		case opNotifyPPE:
			op.sig.FireAfter(m.Cost.SPEToPPESignal)
		case opSendPass:
			op.sig.FireAfter(m.Cost.SPEToSPESignal)
		case opEnd:
			s.running = false
			s.tasksRun++
			if op.sig != nil {
				op.sig.Fire()
			}
		}
		s.pc++
	}
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
	// A busy SPE's run ops move to the front rather than the buffer growing,
	// so it only ever holds the backlog; the op in hand moves with pc.
	if s.pc > 0 && len(s.ops)+len(prog)+1 > cap(s.ops) {
		s.ops, s.pc = s.ops[:copy(s.ops, s.ops[s.pc:])], 0
	}
	s.ops = append(append(s.ops, prog...), Op{kind: opEnd, sig: done})
	s.submitted.NotifyOne()
	return nil
}

// Busy reports whether the SPE is currently executing a program or has
// programs queued.
func (s *SPE) Busy() bool { return s.running || s.pending > 0 }

// QueueLength returns the number of programs waiting to run (not counting
// the one currently running).
func (s *SPE) QueueLength() int { return s.pending }

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
