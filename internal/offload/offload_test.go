package offload

import (
	"testing"

	"cellmg/internal/cellsim"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

func setup(t *testing.T) (*sim.Engine, *cellsim.Machine, *Runtime, *workload.Config) {
	t.Helper()
	eng := sim.NewEngine()
	m := cellsim.NewMachine(eng, cellsim.DefaultCostModel(), 1)
	cfg := workload.RAxML42SC()
	rt := NewRuntime(m, cfg, Optimized)
	return eng, m, rt, cfg
}

// wait runs the engine inside a driver process waiting for the signal and
// returns the completion time.
func waitFor(eng *sim.Engine, sig *sim.Signal) sim.Time {
	var at sim.Time
	eng.Spawn("driver", func(p *sim.Proc) {
		sig.Wait(p)
		at = p.Now()
	})
	eng.Run()
	return at
}

// preload ships the named module to each SPE ahead of time, so that a timed
// off-load does not pay t_code, and blocks the calling (PPE-side) process
// until every SPE has it resident.
func preload(rt *Runtime, p *sim.Proc, spes []*cellsim.SPE, module cellsim.Module) {
	load := []cellsim.Op{cellsim.LoadModule(module, rt.moduleSize(module))}
	signals := make([]*sim.Signal, len(spes))
	for i, spe := range spes {
		signals[i] = sim.NewSignal(rt.Machine.Eng)
		if err := spe.Submit(load, signals[i]); err != nil {
			panic(err)
		}
	}
	for _, s := range signals {
		s.Wait(p)
	}
}

func TestPreloadMakesModuleResidentEverywhere(t *testing.T) {
	eng, m, rt, _ := setup(t)
	eng.Spawn("ppe", func(p *sim.Proc) {
		preload(rt, p, m.AllSPEs(), SerialModule)
	})
	eng.Run()
	for _, spe := range m.AllSPEs() {
		if spe.LoadedModule() != SerialModule {
			t.Errorf("SPE %d module = %d, want %d", spe.Global, spe.LoadedModule(), SerialModule)
		}
		if spe.ModuleLoads() != 1 {
			t.Errorf("SPE %d module loads = %d, want 1", spe.Global, spe.ModuleLoads())
		}
	}
}

func TestGranularityTestAcceptsRAxMLFunctions(t *testing.T) {
	_, _, rt, cfg := setup(t)
	for _, fn := range cfg.Functions {
		if !rt.GranularityOK(fn, true) {
			t.Errorf("%s should pass the granularity test with resident code", fn.Name)
		}
		if !rt.GranularityOK(fn, false) {
			t.Errorf("%s should pass the granularity test even when code must be shipped", fn.Name)
		}
	}
}

func TestGranularityTestRejectsTinyTasks(t *testing.T) {
	_, _, rt, _ := setup(t)
	tiny := &workload.FunctionSpec{
		Name:    "tiny",
		SPETime: 900 * sim.Nanosecond,
		PPETime: 1 * sim.Microsecond, // barely more than the SPE time; 2*t_comm tips the balance
	}
	if rt.GranularityOK(tiny, true) {
		t.Errorf("a task whose off-load round trip exceeds its PPE time should be rejected")
	}
}

func TestOffloadSerialTiming(t *testing.T) {
	eng, m, rt, cfg := setup(t)
	fn := cfg.Functions[0] // newview
	spe := m.SPE(0)
	done := rt.OffloadSerial(spe, fn, 1.0)
	at := waitFor(eng, done)
	cost := m.Cost
	want := cost.DMATime(rt.moduleSize(SerialModule)) + // first load ships the module
		cost.SPEKernelStartup +
		cost.DMATime(fn.InputBytes) +
		fn.SPETime +
		cost.DMATime(fn.OutputBytes) +
		cost.SPEToPPESignal
	if at != sim.Time(want) {
		t.Errorf("serial off-load completed at %v, want %v", at, want)
	}
	if rt.Stats.SerialOffloads != 1 {
		t.Errorf("serial off-load count = %d, want 1", rt.Stats.SerialOffloads)
	}
}

func TestSecondOffloadSkipsCodeShipping(t *testing.T) {
	eng, m, rt, cfg := setup(t)
	fn := cfg.Functions[2] // evaluate (shortest)
	spe := m.SPE(0)
	first := rt.OffloadSerial(spe, fn, 1.0)
	second := rt.OffloadSerial(spe, fn, 1.0)
	var t1, t2 sim.Time
	eng.Spawn("driver", func(p *sim.Proc) {
		first.Wait(p)
		t1 = p.Now()
		second.Wait(p)
		t2 = p.Now()
	})
	eng.Run()
	d1 := sim.Duration(t1)
	d2 := t2.Sub(t1)
	if d2 >= d1 {
		t.Errorf("second off-load (%v) should be faster than the first (%v): t_code amortized", d2, d1)
	}
	codeTime := m.Cost.DMATime(rt.moduleSize(SerialModule))
	if diff := d1 - d2; diff < codeTime-sim.Microsecond || diff > codeTime+sim.Microsecond {
		t.Errorf("difference %v should be about the module shipping time %v", diff, codeTime)
	}
}

func TestNaiveOffloadSlower(t *testing.T) {
	engO := sim.NewEngine()
	mO := cellsim.NewMachine(engO, cellsim.DefaultCostModel(), 1)
	cfg := workload.RAxML42SC()
	opt := NewRuntime(mO, cfg, Optimized)
	atOpt := waitFor(engO, opt.OffloadSerial(mO.SPE(0), cfg.Functions[0], 1.0))

	engN := sim.NewEngine()
	mN := cellsim.NewMachine(engN, cellsim.DefaultCostModel(), 1)
	naive := NewRuntime(mN, cfg, Naive)
	atNaive := waitFor(engN, naive.OffloadSerial(mN.SPE(0), cfg.Functions[0], 1.0))

	if atNaive <= atOpt {
		t.Errorf("naive off-load (%v) should be slower than optimized (%v)", atNaive, atOpt)
	}
	ratio := float64(atNaive) / float64(atOpt)
	if ratio < 1.4 || ratio > 2.2 {
		t.Errorf("naive/optimized ratio = %.2f, want ~1.8 (Section 5.1)", ratio)
	}
}

func TestLoopSplitFavoursMaster(t *testing.T) {
	_, _, rt, cfg := setup(t)
	fn := cfg.Functions[0]
	for workers := 1; workers <= 7; workers++ {
		master, worker := rt.loopSplit(fn, workers)
		if master+worker*workers != fn.LoopIterations {
			t.Errorf("%d workers: split %d+%dx%d does not cover %d iterations",
				workers, master, workers, worker, fn.LoopIterations)
		}
		if master < worker {
			t.Errorf("%d workers: master share %d smaller than worker share %d (should be load-unbalanced in master's favour)",
				workers, master, worker)
		}
	}
}

func TestLoopSplitDegenerateCases(t *testing.T) {
	_, _, rt, cfg := setup(t)
	fn := cfg.Functions[0]
	m, w := rt.loopSplit(fn, 0)
	if m != fn.LoopIterations || w != 0 {
		t.Errorf("0 workers: split = %d/%d, want all iterations on the master", m, w)
	}
	noLoop := &workload.FunctionSpec{Name: "noloop", SPETime: 10 * sim.Microsecond, PPETime: 20 * sim.Microsecond}
	m, w = rt.loopSplit(noLoop, 4)
	if w != 0 {
		t.Errorf("function without a loop should not assign worker iterations, got %d", w)
	}
	_ = m
}

func TestWorkSharedFasterThanSerialForFewWorkers(t *testing.T) {
	cfg := workload.RAxML42SC()
	fn := cfg.Functions[0]

	serialEng := sim.NewEngine()
	serialM := cellsim.NewMachine(serialEng, cellsim.DefaultCostModel(), 1)
	serialRT := NewRuntime(serialM, cfg, Optimized)
	var serialElapsed sim.Duration
	serialEng.Spawn("drv", func(p *sim.Proc) {
		preload(serialRT, p, []*cellsim.SPE{serialM.SPE(0)}, SerialModule)
		start := p.Now()
		serialRT.OffloadSerial(serialM.SPE(0), fn, 1.0).Wait(p)
		serialElapsed = p.Now().Sub(start)
	})
	serialEng.Run()

	elapsedWith := func(workers int) sim.Duration {
		eng := sim.NewEngine()
		m := cellsim.NewMachine(eng, cellsim.DefaultCostModel(), 1)
		rt := NewRuntime(m, cfg, Optimized)
		var elapsed sim.Duration
		eng.Spawn("drv", func(p *sim.Proc) {
			spes := m.AllSPEs()[:workers+1]
			preload(rt, p, spes, ParallelModule)
			start := p.Now()
			rt.OffloadWorkShared(spes[0], spes[1:], fn, 1.0).Wait(p)
			elapsed = p.Now().Sub(start)
		})
		eng.Run()
		return elapsed
	}

	two := elapsedWith(1)   // 2 SPEs total
	four := elapsedWith(3)  // 4 SPEs total
	eight := elapsedWith(7) // 8 SPEs total

	if two >= serialElapsed {
		t.Errorf("LLP on 2 SPEs (%v) should beat serial (%v)", two, serialElapsed)
	}
	if four >= two {
		t.Errorf("LLP on 4 SPEs (%v) should beat 2 SPEs (%v)", four, two)
	}
	// Diminishing (and eventually negative) returns: 8 SPEs must not be
	// dramatically better than 4, reflecting Table 2's plateau.
	if float64(four)/float64(eight) > 1.25 {
		t.Errorf("LLP gain from 4 to 8 SPEs too large: %v -> %v", four, eight)
	}
	speedup := float64(serialElapsed) / float64(four)
	if speedup < 1.1 || speedup > 2.5 {
		t.Errorf("4-SPE loop speedup on one invocation = %.2f, expected a modest gain (Table 2 regime)", speedup)
	}
}

func TestWorkSharedCountsAndModules(t *testing.T) {
	eng, m, rt, cfg := setup(t)
	fn := cfg.Functions[1]
	spes := m.AllSPEs()[:4]
	done := rt.OffloadWorkShared(spes[0], spes[1:], fn, 1.0)
	waitFor(eng, done)
	if rt.Stats.WorkSharedOffloads != 1 {
		t.Errorf("work-shared off-load count = %d, want 1", rt.Stats.WorkSharedOffloads)
	}
	for _, spe := range spes {
		if spe.LoadedModule() != ParallelModule {
			t.Errorf("SPE %d should have the parallel module resident, has %d", spe.Global, spe.LoadedModule())
		}
	}
}

func TestSwitchingModulesChargesReplacement(t *testing.T) {
	eng, m, rt, cfg := setup(t)
	fn := cfg.Functions[2]
	spe := m.SPE(0)
	var sig *sim.Signal
	eng.Spawn("drv", func(p *sim.Proc) {
		rt.OffloadSerial(spe, fn, 1.0).Wait(p)
		sig = rt.OffloadWorkShared(spe, nil, fn, 1.0)
		sig.Wait(p)
		rt.OffloadSerial(spe, fn, 1.0).Wait(p)
	})
	eng.Run()
	if spe.ModuleLoads() != 3 {
		t.Errorf("module loads = %d, want 3 (serial -> parallel -> serial replacement)", spe.ModuleLoads())
	}
}

func TestRunOnPPE(t *testing.T) {
	_, _, rt, cfg := setup(t)
	fn := cfg.Functions[0]
	if got := rt.RunOnPPE(fn, 1.0); got != fn.PPETime {
		t.Errorf("RunOnPPE = %v, want %v", got, fn.PPETime)
	}
	if got := rt.RunOnPPE(fn, 2.0); got != 2*fn.PPETime {
		t.Errorf("RunOnPPE with scale 2 = %v, want %v", got, 2*fn.PPETime)
	}
	if rt.Stats.PPEExecutions != 2 {
		t.Errorf("PPE execution count = %d, want 2", rt.Stats.PPEExecutions)
	}
}

func TestOptLevelString(t *testing.T) {
	if Optimized.String() != "optimized" || Naive.String() != "naive" {
		t.Errorf("unexpected OptLevel strings")
	}
}
