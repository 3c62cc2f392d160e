package offload

// Concurrency coverage for the off-load runtime, meant to run under -race.
// One simulation engine is single-threaded by design, so the concurrency that
// actually occurs in this repository is many independent simulations driven
// from parallel goroutines (every experiment sweep does this via
// BenchmarkE*/Figure* harnesses) plus read-only sharing of the workload
// config between them. These tests pin both patterns down: concurrent
// engines must not interfere through hidden shared state, and the shared
// config must only ever be read.

import (
	"sync"
	"testing"

	"cellmg/internal/cellsim"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// TestConcurrentSimulationsShareNothing runs many full off-load simulations
// in parallel goroutines against one shared workload.Config. Under -race this
// fails if the runtime, machine, or simulator leak state across instances or
// if anything mutates the shared config.
func TestConcurrentSimulationsShareNothing(t *testing.T) {
	cfg := workload.RAxML42SC() // shared, must be treated as read-only
	const parallel = 8
	results := make([]sim.Time, parallel)
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			m := cellsim.NewMachine(eng, cellsim.DefaultCostModel(), 1)
			rt := NewRuntime(m, cfg, Optimized)
			var last *sim.Signal
			eng.Spawn("drv", func(p *sim.Proc) {
				preload(rt, p, m.AllSPEs(), SerialModule)
				for i, fn := range cfg.Functions {
					rt.OffloadSerial(m.SPE(i%8), fn, 1.0).Wait(p)
				}
				spes := m.AllSPEs()[:4]
				last = rt.OffloadWorkShared(spes[0], spes[1:], cfg.Functions[0], 1.0)
				last.Wait(p)
				results[g] = p.Now()
			})
			eng.Run()
			if rt.Stats.SerialOffloads != len(cfg.Functions) {
				t.Errorf("goroutine %d: serial off-loads = %d, want %d", g, rt.Stats.SerialOffloads, len(cfg.Functions))
			}
			if rt.Stats.WorkSharedOffloads != 1 {
				t.Errorf("goroutine %d: work-shared off-loads = %d, want 1", g, rt.Stats.WorkSharedOffloads)
			}
		}()
	}
	wg.Wait()
	// Identical inputs must give identical virtual completion times: any
	// divergence means one simulation observed another's state.
	for g := 1; g < parallel; g++ {
		if results[g] != results[0] {
			t.Errorf("goroutine %d finished at %v, goroutine 0 at %v — simulations are not independent", g, results[g], results[0])
		}
	}
}

// TestConcurrentGranularityChecks hammers the read-only decision helpers of
// one runtime from many goroutines while simulations using the same config
// run elsewhere; GranularityOK and RunOnPPE-style cost queries are called on
// the scheduler's hot path, so they must be data-race-free for readers.
func TestConcurrentGranularityChecks(t *testing.T) {
	eng := sim.NewEngine()
	m := cellsim.NewMachine(eng, cellsim.DefaultCostModel(), 1)
	cfg := workload.RAxML42SC()
	rt := NewRuntime(m, cfg, Optimized)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, fn := range cfg.Functions {
					if !rt.GranularityOK(fn, true) {
						t.Errorf("%s failed the granularity test with resident code", fn.Name)
						return
					}
					rt.GranularityOK(fn, false)
					rt.speTime(fn, 1.0)
					rt.loopSplit(fn, 3)
				}
			}
		}()
	}
	wg.Wait()
}
