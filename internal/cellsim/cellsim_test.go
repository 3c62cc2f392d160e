package cellsim

import (
	"runtime"
	"testing"
	"testing/quick"

	"cellmg/internal/sim"
)

func newTestMachine(t *testing.T, cells int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewMachine(eng, DefaultCostModel(), cells)
}

func mustSubmit(t *testing.T, spe *SPE, done *sim.Signal, prog ...Op) {
	t.Helper()
	if err := spe.Submit(prog, done); err != nil {
		t.Fatal(err)
	}
}

// firedAt spawns a process that waits for sig and records when it fired,
// then calls then (if non-nil).
func firedAt(eng *sim.Engine, sig *sim.Signal, then func()) *sim.Time {
	var at sim.Time
	eng.Spawn("waiter", func(p *sim.Proc) {
		if !sig.Await(p) {
			return
		}
		at = p.Now()
		if then != nil {
			then()
		}
	})
	return &at
}

// computeOnPPE returns a step function that claims a context of ppe,
// computes for d on it, releases it and calls done.
func computeOnPPE(ppe *PPE, d sim.Duration, done func(p *sim.Proc)) func(p *sim.Proc) {
	asked := false
	var c Charge
	return func(p *sim.Proc) {
		if !asked {
			asked = true
			if !ppe.TryAcquireContext(p) {
				return // woken holding the context
			}
		}
		if !ppe.Compute(p, &c, d) {
			return
		}
		ppe.ReleaseContext()
		done(p)
	}
}

func TestDefaultCostModelMatchesPaperConstants(t *testing.T) {
	c := DefaultCostModel()
	if c.ContextSwitch != 1500*sim.Nanosecond {
		t.Errorf("context switch = %v, want 1.5us (Section 5.2)", c.ContextSwitch)
	}
	if c.KernelQuantum != 10*sim.Millisecond {
		t.Errorf("kernel quantum = %v, want 10ms (Section 5.2)", c.KernelQuantum)
	}
	if c.PPEContexts != 2 {
		t.Errorf("PPE contexts = %d, want 2", c.PPEContexts)
	}
	if c.LocalStoreSize != 256*1024 {
		t.Errorf("local store = %d, want 256KB", c.LocalStoreSize)
	}
	if c.DMAChunk != 16*1024 {
		t.Errorf("DMA chunk = %d, want 16KB", c.DMAChunk)
	}
}

func TestDMATimeChunking(t *testing.T) {
	c := DefaultCostModel()
	if c.DMATime(0) != 0 {
		t.Errorf("zero-byte DMA should be free")
	}
	small := c.DMATime(1024)
	if small <= c.DMAStartup {
		t.Errorf("1KB DMA (%v) must cost more than the startup latency (%v)", small, c.DMAStartup)
	}
	// A 117 KB module (the paper's merged off-load module) needs 8 chunks.
	module := 117 * 1024
	got := c.DMATime(module)
	wantStartups := sim.Duration(8) * c.DMAStartup
	wantTransfer := sim.Duration(float64(module) / c.DMABandwidth)
	if got != wantStartups+wantTransfer {
		t.Errorf("DMATime(117KB) = %v, want %v", got, wantStartups+wantTransfer)
	}
}

func TestDMATimeMonotonicInSize(t *testing.T) {
	c := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.DMATime(x) <= c.DMATime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMachineTopology(t *testing.T) {
	_, m := newTestMachine(t, 2)
	if m.NumSPEs() != 16 {
		t.Errorf("NumSPEs = %d, want 16", m.NumSPEs())
	}
	if m.NumPPEContexts() != 4 {
		t.Errorf("NumPPEContexts = %d, want 4", m.NumPPEContexts())
	}
	all := m.AllSPEs()
	if len(all) != 16 {
		t.Fatalf("AllSPEs returned %d elements", len(all))
	}
	for i, spe := range all {
		if spe.Global != i {
			t.Errorf("AllSPEs[%d].Global = %d", i, spe.Global)
		}
		if m.SPE(i) != spe {
			t.Errorf("SPE(%d) does not match AllSPEs order", i)
		}
	}
	if all[9].Cell().Index != 1 || all[9].Index != 1 {
		t.Errorf("global SPE 9 should be cell 1, local 1; got cell %d local %d",
			all[9].Cell().Index, all[9].Index)
	}
}

func TestMachineValidation(t *testing.T) {
	eng := sim.NewEngine()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero cells", func() { NewMachine(eng, DefaultCostModel(), 0) })
	mustPanic("nil cost model", func() { NewMachine(eng, nil, 1) })
}

func TestSPESubmitRunsFIFOAndSignalsCompletion(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	spe := m.SPE(0)
	var order []string
	d1, d2 := sim.NewSignal(eng), sim.NewSignal(eng)
	mustSubmit(t, spe, d1, Compute(10*sim.Microsecond))
	mustSubmit(t, spe, d2, Compute(5*sim.Microsecond))
	at1 := firedAt(eng, d1, func() { order = append(order, "a") })
	at2 := firedAt(eng, d2, func() { order = append(order, "b") })
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("execution order = %v, want [a b]", order)
	}
	if doneAt := [2]sim.Time{*at1, *at2}; doneAt[0] != sim.Time(10*sim.Microsecond) || doneAt[1] != sim.Time(15*sim.Microsecond) {
		t.Errorf("completion times = %v, want [10us 15us]", doneAt)
	}
	if spe.TasksRun() != 2 {
		t.Errorf("tasks run = %d, want 2", spe.TasksRun())
	}
	if spe.BusyTime() != 15*sim.Microsecond {
		t.Errorf("busy time = %v, want 15us", spe.BusyTime())
	}
}

func TestSPEBusyReflectsQueueAndExecution(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	spe := m.SPE(0)
	if spe.Busy() {
		t.Fatalf("fresh SPE should be idle")
	}
	mustSubmit(t, spe, nil, Compute(10*sim.Microsecond))
	mustSubmit(t, spe, nil, Compute(10*sim.Microsecond))
	if !spe.Busy() || spe.QueueLength() != 2 {
		t.Errorf("SPE with queued work should be busy (queue=%d)", spe.QueueLength())
	}
	eng.Run()
	if spe.Busy() {
		t.Errorf("SPE should be idle after draining its queue")
	}
}

func TestLoadModuleCachingAndCapacity(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	spe := m.SPE(0)
	moduleSize := 117 * 1024
	d1, d2 := sim.NewSignal(eng), sim.NewSignal(eng)
	mustSubmit(t, spe, d1, LoadModule(1, moduleSize))
	mustSubmit(t, spe, d2, LoadModule(1, moduleSize))
	// A module larger than the local store is refused when it is submitted,
	// and nothing of its program is queued.
	if err := spe.Submit([]Op{Compute(sim.Microsecond), LoadModule(2, 300*1024)}, nil); err == nil {
		t.Errorf("loading a module larger than the local store should fail")
	}
	if spe.QueueLength() != 2 {
		t.Errorf("queue length = %d after a refused program, want 2", spe.QueueLength())
	}
	at1, at2 := firedAt(eng, d1, nil), firedAt(eng, d2, nil)
	eng.Run()
	firstLoad, secondLoad := sim.Duration(*at1), at2.Sub(*at1)
	if firstLoad == 0 {
		t.Errorf("first module load should cost DMA time")
	}
	if secondLoad != 0 {
		t.Errorf("reloading the resident module should be free, cost %v", secondLoad)
	}
	if spe.ModuleLoads() != 1 {
		t.Errorf("module loads = %d, want 1", spe.ModuleLoads())
	}
	if free := spe.LocalStoreFree(); free != 256*1024-moduleSize {
		t.Errorf("local store free = %d, want %d (the paper reports 139KB left)", free, 256*1024-moduleSize)
	}
}

func TestModuleReplacementChargesAgain(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	spe := m.SPE(0)
	mustSubmit(t, spe, nil, LoadModule(1, 100*1024), LoadModule(2, 120*1024), LoadModule(1, 100*1024))
	eng.Run()
	if spe.ModuleLoads() != 3 {
		t.Errorf("module loads = %d, want 3 (switching versions re-ships code)", spe.ModuleLoads())
	}
}

func TestPPESMTContention(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	ppe := m.Cells[0].PPE
	var soloEnd, pairEnd sim.Time
	// Phase 1: one context computing alone for 100us.
	eng.Spawn("solo", computeOnPPE(ppe, 100*sim.Microsecond, func(p *sim.Proc) { soloEnd = p.Now() }))
	eng.Run()
	if soloEnd != sim.Time(100*sim.Microsecond) {
		t.Fatalf("solo compute finished at %v, want 100us", soloEnd)
	}

	// Phase 2: two contexts overlapping; both should be stretched.
	eng2 := sim.NewEngine()
	m2 := NewMachine(eng2, DefaultCostModel(), 1)
	ppe2 := m2.Cells[0].PPE
	for i := 0; i < 2; i++ {
		eng2.Spawn("pair", computeOnPPE(ppe2, 100*sim.Microsecond, func(p *sim.Proc) {
			if p.Now() > sim.Time(pairEnd) {
				pairEnd = p.Now()
			}
		}))
	}
	eng2.Run()
	want := sim.Duration(float64(100*sim.Microsecond) * DefaultCostModel().SMTContention)
	if pairEnd < sim.Time(want) {
		t.Errorf("co-scheduled compute finished at %v, want at least %v (SMT contention)", pairEnd, want)
	}
}

func TestPPEContextResourceLimitsParallelism(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	ppe := m.Cells[0].PPE
	running, maxRunning := 0, 0
	for i := 0; i < 5; i++ {
		phase := 0
		eng.Spawn("mpi", func(p *sim.Proc) {
			if phase == 0 {
				phase = 1
				if !ppe.TryAcquireContext(p) {
					return // woken holding the context
				}
			}
			if phase == 1 {
				phase = 2
				running++
				if running > maxRunning {
					maxRunning = running
				}
				if !p.Sleep(10 * sim.Microsecond) {
					return
				}
			}
			running--
			ppe.ReleaseContext()
		})
	}
	eng.Run()
	if maxRunning != 2 {
		t.Errorf("max concurrent PPE contexts = %d, want 2", maxRunning)
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	ppe := m.Cells[0].PPE
	var c Charge
	switched := 0
	eng.Spawn("sched", func(p *sim.Proc) {
		for ; switched < 4; switched++ {
			if !ppe.ContextSwitch(p, &c) {
				return
			}
		}
		ppe.KernelSwitch(p, &c)
	})
	final := eng.Run()
	if ppe.Switches() != 4 || ppe.KernelSwitches() != 1 {
		t.Errorf("switches = %d/%d, want 4/1", ppe.Switches(), ppe.KernelSwitches())
	}
	want := sim.Time(4*DefaultCostModel().ContextSwitch + DefaultCostModel().KernelSwitch)
	if final != want {
		t.Errorf("elapsed = %v, want %v", final, want)
	}
}

func TestEIBLimitsConcurrentDMA(t *testing.T) {
	eng := sim.NewEngine()
	cost := DefaultCostModel()
	cost.EIBConcurrentTransfers = 2
	m := NewMachine(eng, cost, 1)
	// 4 SPEs each issue one DMA of the same size at t=0; with only 2
	// concurrent EIB slots the last pair must finish one transfer-time later.
	size := 16 * 1024
	per := cost.DMATime(size)
	var lastDone sim.Time
	done := make([]*sim.Signal, 4)
	for i := 0; i < 4; i++ {
		done[i] = sim.NewSignal(eng)
		mustSubmit(t, m.SPE(i), done[i], DMAGet(size))
	}
	joined := 0
	eng.Spawn("join", func(p *sim.Proc) {
		for ; joined < len(done); joined++ {
			if !done[joined].Await(p) {
				return
			}
		}
		lastDone = p.Now()
	})
	eng.Run()
	if lastDone < sim.Time(2*per) {
		t.Errorf("4 DMAs over 2 EIB slots finished at %v, want >= %v", lastDone, 2*per)
	}
}

func TestNotifyPPEAndSendPassLatencies(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	cost := m.Cost
	sigPPE := sim.NewSignal(eng)
	sigSPE := sim.NewSignal(eng)
	done, passSeen := sim.NewSignal(eng), sim.NewSignal(eng)
	mustSubmit(t, m.SPE(0), done, Compute(10*sim.Microsecond), NotifyPPE(sigPPE), SendPass(sigSPE))
	ppeSaw := firedAt(eng, sigPPE, nil)
	mustSubmit(t, m.SPE(1), passSeen, WaitSignal(sigSPE))
	speDone, passSeenBy := firedAt(eng, done, nil), firedAt(eng, passSeen, nil)
	eng.Run()
	speDoneAt, ppeSawAt, passSeenAt := *speDone, *ppeSaw, *passSeenBy
	if speDoneAt != sim.Time(10*sim.Microsecond) {
		t.Errorf("SPE should not stall on notification, done at %v", speDoneAt)
	}
	if ppeSawAt != sim.Time(10*sim.Microsecond).Add(cost.SPEToPPESignal) {
		t.Errorf("PPE saw completion at %v, want compute end + signal latency", ppeSawAt)
	}
	if passSeenAt != sim.Time(10*sim.Microsecond).Add(cost.SPEToSPESignal) {
		t.Errorf("worker SPE saw Pass at %v, want compute end + SPE-SPE latency", passSeenAt)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, m := newTestMachine(t, 1)
	// SPE 0 busy for 30us; let the clock advance to 60us; SPE 0 should be
	// ~50% utilized, others 0.
	mustSubmit(t, m.SPE(0), nil, Compute(30*sim.Microsecond))
	slept := false
	eng.Spawn("clock", func(p *sim.Proc) {
		if !slept {
			slept = true
			p.Sleep(60 * sim.Microsecond)
		}
	})
	eng.Run()
	u := m.Utilization()
	if u.SPEBusy[0] < 0.49 || u.SPEBusy[0] > 0.51 {
		t.Errorf("SPE0 utilization = %.2f, want 0.50", u.SPEBusy[0])
	}
	for i := 1; i < 8; i++ {
		if u.SPEBusy[i] != 0 {
			t.Errorf("SPE%d utilization = %.2f, want 0", i, u.SPEBusy[i])
		}
	}
	if u.MeanSPEBusy < 0.05 || u.MeanSPEBusy > 0.07 {
		t.Errorf("mean SPE utilization = %.3f, want 0.0625", u.MeanSPEBusy)
	}
}

// TestNewMachineStartsNoGoroutines: an SPE is a step function the engine
// calls, so building a blade and running programs on every SPE starts no
// goroutine.
func TestNewMachineStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	eng, m := newTestMachine(t, 2)
	defer eng.Close()
	for _, spe := range m.AllSPEs() {
		mustSubmit(t, spe, nil, LoadModule(1, 64*1024), KernelStartup(), DMAGet(4096), Compute(sim.Microsecond))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before NewMachine, %d after", before, after)
	}
	eng.Run()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before NewMachine, %d after running a program on each SPE", before, after)
	}
	for _, spe := range m.AllSPEs() {
		if spe.TasksRun() != 1 {
			t.Errorf("SPE %d ran %d programs, want 1", spe.Global, spe.TasksRun())
		}
	}
}

func TestCostModelCloneIsIndependent(t *testing.T) {
	base := DefaultCostModel()
	clone := base.Clone()
	clone.SMTContention = 99
	clone.ContextSwitch = 1
	if base.SMTContention == 99 || base.ContextSwitch == 1 {
		t.Errorf("mutating a clone must not affect the original")
	}
}

func TestRoundTripSignal(t *testing.T) {
	c := DefaultCostModel()
	if c.RoundTripSignal() != c.PPEToSPESignal+c.SPEToPPESignal {
		t.Errorf("RoundTripSignal should be the sum of the two one-way latencies")
	}
}

func TestIntegrationWithCellsimHook(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, DefaultCostModel(), 1)
	intervals := 0                     // the intervals a chart would draw: longer than zero
	comps := map[string]bool{}         // their components
	kinds := map[string]sim.Duration{} // SPE 0's busy time by activity kind
	m.Trace = func(component string, start, end sim.Time, kind string) {
		if end > start {
			intervals++
			comps[component] = true
		}
		if component == "cell0.spe0" {
			kinds[kind] += end.Sub(start)
		}
	}
	prog := []Op{DMAGet(4096), Compute(20 * sim.Microsecond), DMAPut(4096)}
	if err := m.SPE(0).Submit(prog, nil); err != nil {
		t.Fatal(err)
	}
	ppe := m.Cells[0].PPE
	asked := false
	var c Charge
	eng.Spawn("ppe", func(p *sim.Proc) {
		if !asked {
			asked = true
			if !ppe.TryAcquireContext(p) {
				return // woken holding the context
			}
		}
		if ppe.Compute(p, &c, 5*sim.Microsecond) {
			ppe.ReleaseContext()
		}
	})
	eng.Run()
	if intervals < 4 {
		t.Fatalf("expected at least 4 intervals (2 DMA + 1 compute + 1 PPE), got %d", intervals)
	}
	if !comps["cell0.spe0"] || !comps["cell0.ppe"] {
		t.Errorf("components = %v", comps)
	}
	if kinds["compute"] != 20*sim.Microsecond {
		t.Errorf("spe compute time = %v, want 20us", kinds["compute"])
	}
	if kinds["dma"] == 0 {
		t.Errorf("DMA intervals should be traced")
	}
}
