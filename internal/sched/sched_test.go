package sched

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"cellmg/internal/offload"
	"cellmg/internal/policy"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// fastConfig returns the RAxML workload scaled down further so scheduler
// tests stay fast; ratios are untouched.
func fastConfig() *workload.Config {
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 120
	return cfg
}

func TestSingleBootstrapBaselinesAgree(t *testing.T) {
	cfg := fastConfig()
	edtlp := RunEDTLP(Options{Workload: cfg, Bootstraps: 1})
	linux := RunLinux(Options{Workload: cfg, Bootstraps: 1})
	// Table 1: with one worker the two schedulers are equivalent
	// (28.46 s vs 28.42 s).
	ratio := edtlp.PaperSeconds / linux.PaperSeconds
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("1-worker EDTLP/Linux ratio = %.3f, want ~1.0", ratio)
	}
	// And both should be in the ballpark of the paper's 28.5 s.
	if edtlp.PaperSeconds < 24 || edtlp.PaperSeconds > 34 {
		t.Errorf("1-worker bootstrap = %.1f paper-s, want ~28.5", edtlp.PaperSeconds)
	}
}

func TestPPEOnlySlowerThanOptimizedOffload(t *testing.T) {
	cfg := fastConfig()
	ppe := RunPPEOnly(Options{Workload: cfg, Bootstraps: 1})
	off := RunEDTLP(Options{Workload: cfg, Bootstraps: 1})
	// Section 5.1: 38.23 s PPE-only vs 28.82 s optimized off-load (1.33x).
	ratio := ppe.PaperSeconds / off.PaperSeconds
	if ratio < 1.2 || ratio > 1.5 {
		t.Errorf("PPE-only / optimized off-load = %.2f, want ~1.33", ratio)
	}
}

func TestNaiveOffloadSlowerThanPPEOnly(t *testing.T) {
	cfg := fastConfig()
	ppe := RunPPEOnly(Options{Workload: cfg, Bootstraps: 1})
	// Section 5.1 measures the straightforward port (no user-level scheduler,
	// no granularity control), so the naive level runs under the plain
	// kernel scheduler. (Under EDTLP the granularity test would refuse to
	// off-load the naive kernels, since their SPE time exceeds their PPE
	// time — which is the correct behaviour, but not the §5.1 experiment.)
	naive := RunLinux(Options{Workload: cfg, Bootstraps: 1, Level: offload.Naive})
	// Section 5.1: naive off-loading (50.38 s) is slower than not off-loading
	// at all (38.23 s).
	if naive.PaperSeconds <= ppe.PaperSeconds {
		t.Errorf("naive off-load (%.1f) should be slower than PPE-only (%.1f)",
			naive.PaperSeconds, ppe.PaperSeconds)
	}
	ratio := naive.PaperSeconds / ppe.PaperSeconds
	if ratio < 1.1 || ratio > 1.6 {
		t.Errorf("naive / PPE-only = %.2f, want ~1.32", ratio)
	}
}

func TestEDTLPScalesAndLinuxDoesNot(t *testing.T) {
	cfg := fastConfig()
	e1 := RunEDTLP(Options{Workload: cfg, Bootstraps: 1})
	e8 := RunEDTLP(Options{Workload: cfg, Bootstraps: 8})
	l8 := RunLinux(Options{Workload: cfg, Bootstraps: 8})

	// Table 1: EDTLP keeps 8 bootstraps within roughly 1.5x of one bootstrap
	// (43.32 s vs 28.46 s); it must neither be free (ratio ~1) nor collapse.
	growth := e8.PaperSeconds / e1.PaperSeconds
	if growth < 1.15 || growth > 1.8 {
		t.Errorf("EDTLP 8-worker growth = %.2fx, want ~1.5x", growth)
	}
	// Linux needs ceil(8/2) = 4 sequential waves.
	linuxGrowth := l8.PaperSeconds / e1.PaperSeconds
	if linuxGrowth < 3.3 || linuxGrowth > 4.7 {
		t.Errorf("Linux 8-worker growth = %.2fx, want ~4x", linuxGrowth)
	}
	// EDTLP beats Linux by roughly the paper's factor (2.6x at 7-8 workers).
	adv := l8.PaperSeconds / e8.PaperSeconds
	if adv < 2.2 || adv > 3.4 {
		t.Errorf("EDTLP advantage over Linux at 8 workers = %.2fx, want ~2.6x", adv)
	}
}

func TestLinuxStepPattern(t *testing.T) {
	cfg := fastConfig()
	// Table 1: Linux times step up in pairs (1-2 similar, 3-4 similar, ...).
	l2 := RunLinux(Options{Workload: cfg, Bootstraps: 2})
	l3 := RunLinux(Options{Workload: cfg, Bootstraps: 3})
	l4 := RunLinux(Options{Workload: cfg, Bootstraps: 4})
	if l3.PaperSeconds < 1.6*l2.PaperSeconds {
		t.Errorf("Linux 3 workers (%.1f) should be ~2x of 2 workers (%.1f)", l3.PaperSeconds, l2.PaperSeconds)
	}
	if l4.PaperSeconds/l3.PaperSeconds > 1.15 {
		t.Errorf("Linux 4 workers (%.1f) should be close to 3 workers (%.1f)", l4.PaperSeconds, l3.PaperSeconds)
	}
	if l2.KernelSwitches != 0 {
		t.Errorf("2 workers on 2 contexts should not need kernel preemptions, got %d", l2.KernelSwitches)
	}
	if l4.KernelSwitches == 0 {
		t.Errorf("4 workers on 2 contexts should preempt at quantum boundaries")
	}
}

func TestEDTLPUsesAllSPEsAtHighTLP(t *testing.T) {
	cfg := fastConfig()
	r := RunEDTLP(Options{Workload: cfg, Bootstraps: 8})
	l := RunLinux(Options{Workload: cfg, Bootstraps: 8})
	// Table 1 implies an SPE utilization of roughly 0.9*28.46/43.32 ~ 60%
	// under EDTLP at 8 workers, versus ~22% under Linux.
	if r.MeanSPEUtilization < 0.5 {
		t.Errorf("EDTLP with 8 bootstraps should keep SPEs busy, mean utilization = %.2f", r.MeanSPEUtilization)
	}
	if r.MeanSPEUtilization < 2*l.MeanSPEUtilization {
		t.Errorf("EDTLP SPE utilization (%.2f) should be at least twice Linux's (%.2f)",
			r.MeanSPEUtilization, l.MeanSPEUtilization)
	}
	if r.WorkSharedOffloads != 0 {
		t.Errorf("plain EDTLP must never work-share loops, got %d", r.WorkSharedOffloads)
	}
	if r.SerialOffloads != 8*cfg.CallsPerBootstrap {
		t.Errorf("serial off-loads = %d, want %d", r.SerialOffloads, 8*cfg.CallsPerBootstrap)
	}
}

func TestEDTLPContextSwitchesOnlyWhenOversubscribed(t *testing.T) {
	cfg := fastConfig()
	r2 := RunEDTLP(Options{Workload: cfg, Bootstraps: 2})
	if r2.ContextSwitches != 0 {
		t.Errorf("2 MPI processes fit the 2 PPE contexts; no voluntary switches expected, got %d", r2.ContextSwitches)
	}
	r4 := RunEDTLP(Options{Workload: cfg, Bootstraps: 4})
	if r4.ContextSwitches == 0 {
		t.Errorf("4 MPI processes on 2 contexts must switch voluntarily on off-load")
	}
}

func TestStaticHybridLLPSpeedupRegime(t *testing.T) {
	cfg := fastConfig()
	base := RunEDTLP(Options{Workload: cfg, Bootstraps: 1})
	speedups := map[int]float64{}
	for _, width := range []int{2, 4, 8} {
		r := RunStaticHybrid(Options{Workload: cfg, Bootstraps: 1, SPEsPerLoop: width})
		if r.WorkSharedOffloads == 0 {
			t.Fatalf("static hybrid with %d SPEs per loop did not work-share", width)
		}
		speedups[width] = base.PaperSeconds / r.PaperSeconds
	}
	// Table 2 regime: modest speedups that peak in the middle widths.
	if speedups[2] < 1.15 || speedups[2] > 1.8 {
		t.Errorf("LLP speedup with 2 SPEs = %.2f, want ~1.38 (28.71/20.83)", speedups[2])
	}
	if speedups[4] < 1.25 || speedups[4] > 2.0 {
		t.Errorf("LLP speedup with 4 SPEs = %.2f, want ~1.57 (28.71/18.28)", speedups[4])
	}
	if speedups[4] < speedups[2] {
		t.Errorf("4-SPE loops (%.2f) should beat 2-SPE loops (%.2f) for a single bootstrap", speedups[4], speedups[2])
	}
	if speedups[8] > speedups[4]*1.15 {
		t.Errorf("8-SPE loops (%.2f) should show diminishing returns vs 4 (%.2f)", speedups[8], speedups[4])
	}
}

func TestHybridBeatsEDTLPForFewBootstrapsOnly(t *testing.T) {
	cfg := fastConfig()
	// Figure 7: with 2 bootstraps the hybrid wins; with 8 EDTLP wins.
	e2 := RunEDTLP(Options{Workload: cfg, Bootstraps: 2})
	h2 := RunStaticHybrid(Options{Workload: cfg, Bootstraps: 2, SPEsPerLoop: 4})
	if h2.PaperSeconds >= e2.PaperSeconds {
		t.Errorf("2 bootstraps: EDTLP-LLP(4) (%.1f) should beat EDTLP (%.1f)", h2.PaperSeconds, e2.PaperSeconds)
	}
	e8 := RunEDTLP(Options{Workload: cfg, Bootstraps: 8})
	h8 := RunStaticHybrid(Options{Workload: cfg, Bootstraps: 8, SPEsPerLoop: 4})
	if e8.PaperSeconds >= h8.PaperSeconds {
		t.Errorf("8 bootstraps: EDTLP (%.1f) should beat EDTLP-LLP(4) (%.1f)", e8.PaperSeconds, h8.PaperSeconds)
	}
}

func TestMGPSTracksBestStaticScheme(t *testing.T) {
	cfg := fastConfig()
	for _, n := range []int{2, 8} {
		e := RunEDTLP(Options{Workload: cfg, Bootstraps: n})
		h := RunStaticHybrid(Options{Workload: cfg, Bootstraps: n, SPEsPerLoop: 4})
		m := RunMGPS(Options{Workload: cfg, Bootstraps: n})
		best := e.PaperSeconds
		if h.PaperSeconds < best {
			best = h.PaperSeconds
		}
		// Figure 8: MGPS should be within ~15% of the better static scheme at
		// every point (it pays a small adaptation cost).
		if m.PaperSeconds > best*1.15 {
			t.Errorf("%d bootstraps: MGPS = %.1f, best static = %.1f (EDTLP %.1f, hybrid %.1f)",
				n, m.PaperSeconds, best, e.PaperSeconds, h.PaperSeconds)
		}
	}
}

func TestMGPSAdaptsModes(t *testing.T) {
	cfg := fastConfig()
	low := RunMGPS(Options{Workload: cfg, Bootstraps: 2})
	if low.WorkSharedOffloads == 0 {
		t.Errorf("MGPS with 2 bootstraps should activate loop-level parallelism")
	}
	high := RunMGPS(Options{Workload: cfg, Bootstraps: 8})
	frac := float64(high.WorkSharedOffloads) / float64(high.WorkSharedOffloads+high.SerialOffloads)
	if frac > 0.05 {
		t.Errorf("MGPS with 8 bootstraps should stay in EDTLP mode, %.1f%% of off-loads were work-shared", 100*frac)
	}
	if low.MGPSEvaluations == 0 {
		t.Errorf("MGPS should have evaluated at least one window")
	}
}

func TestTwoCellsScale(t *testing.T) {
	cfg := fastConfig()
	one := RunEDTLP(Options{Workload: cfg, Bootstraps: 16, NumCells: 1})
	two := RunEDTLP(Options{Workload: cfg, Bootstraps: 16, NumCells: 2})
	// Section 5.5: two Cells deliver almost twice the performance.
	speedup := one.PaperSeconds / two.PaperSeconds
	if speedup < 1.6 || speedup > 2.15 {
		t.Errorf("dual-Cell speedup = %.2f, want ~2x", speedup)
	}
	// And the hybrid can still win on two Cells with up to 8 bootstraps
	// (4 per Cell, so 2-SPE loops keep every SPE busy).
	h8 := RunStaticHybrid(Options{Workload: cfg, Bootstraps: 8, NumCells: 2, SPEsPerLoop: 2})
	e8 := RunEDTLP(Options{Workload: cfg, Bootstraps: 8, NumCells: 2})
	if h8.PaperSeconds >= e8.PaperSeconds {
		t.Errorf("8 bootstraps on 2 Cells: EDTLP-LLP(2) (%.1f) should beat EDTLP (%.1f)",
			h8.PaperSeconds, e8.PaperSeconds)
	}
}

func TestResultBookkeeping(t *testing.T) {
	cfg := fastConfig()
	r := RunEDTLP(Options{Workload: cfg, Bootstraps: 3})
	if len(r.ProcFinish) != 3 {
		t.Fatalf("ProcFinish has %d entries, want 3", len(r.ProcFinish))
	}
	var max float64
	for i, f := range r.ProcFinish {
		if f <= 0 {
			t.Errorf("process %d finish time not recorded", i)
		}
		if f.Seconds() > max {
			max = f.Seconds()
		}
	}
	if r.SimTime.Seconds() != max {
		t.Errorf("SimTime %.3f != max process finish %.3f", r.SimTime.Seconds(), max)
	}
	if r.PaperSeconds <= r.SimTime.Seconds() {
		t.Errorf("paper-equivalent seconds should be scaled up from simulated seconds")
	}
	if r.ModuleLoads == 0 {
		t.Errorf("module loads should be counted")
	}
	if r.Speedup(r) != 1.0 {
		t.Errorf("self speedup should be 1.0")
	}
	if r.String() == "" {
		t.Errorf("String() should describe the result")
	}
}

func TestMGPSCustomWindowOption(t *testing.T) {
	cfg := fastConfig()
	r := RunMGPS(Options{
		Workload:   cfg,
		Bootstraps: 2,
		MGPS:       policy.MGPSConfig{NumSPEs: 8, Window: 4, UThreshold: 4},
	})
	if r.MGPSEvaluations == 0 {
		t.Errorf("custom MGPS window should still evaluate")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := fastConfig()
	r := RunEDTLP(Options{Workload: cfg}) // no bootstraps, cells or cost model given
	if r.Bootstraps != 1 {
		t.Errorf("default bootstraps = %d, want 1", r.Bootstraps)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("missing workload should panic")
		}
	}()
	RunEDTLP(Options{})
}

// sweepResults is what testdata/sweep_golden.json pins: the benchmark's
// sim_sweep grid ({1,2,4,8,16} bootstraps of RAxML42SC under EDTLP,
// EDTLP-LLP(4) and MGPS) with the Linux baseline beside it, the PPE-only
// baseline, and one dual-Cell MGPS run — every field of every Result.
func sweepResults() []Result {
	cfg := workload.RAxML42SC()
	var rows []Result
	for _, b := range []int{1, 2, 4, 8, 16} {
		opt := Options{Workload: cfg, Bootstraps: b, SPEsPerLoop: 4}
		rows = append(rows, RunEDTLP(opt), RunStaticHybrid(opt), RunMGPS(opt), RunLinux(opt))
	}
	return append(rows,
		RunPPEOnly(Options{Workload: cfg, Bootstraps: 3}),
		RunMGPS(Options{Workload: cfg, Bootstraps: 6, NumCells: 2}))
}

// TestSweepMatchesGolden compares the sweep with testdata/sweep_golden.json,
// byte for byte at encoding/json's round-trip float precision. The fixture
// was written by this function at 23bf8dd, the last commit where simulated
// processes were goroutines handing off over channels; the simulator is
// deterministic, so a difference in any makespan, finish time, counter or
// utilisation is a change of the simulation, never noise.
func TestSweepMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/sweep_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := sweepResults()
	if len(got) != len(want) {
		t.Fatalf("%d results, fixture has %d", len(got), len(want))
	}
	for i, r := range got {
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, compact.Bytes()) {
			t.Errorf("%s at %d bootstraps differs from testdata/sweep_golden.json\n got %s\nwant %s",
				r.Scheduler, r.Bootstraps, enc, compact.Bytes())
		}
	}
}

// TestSimulationLeavesNoGoroutines: no simulation runs a goroutine. Every
// simulated process — SPE, MPI process, kernel dispatcher — is a step
// function the engine calls, so the goroutine count sampled from the trace
// hook during the run, and the count after it, equal the count before it.
// The kernel dispatchers of RunLinux and RunPPEOnly never return on their own
// — they park on their run queues — so the engine shutdown must also end
// them.
func TestSimulationLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	during := map[int]int{} // goroutine count → intervals it was seen at
	opt := Options{Workload: fastConfig(), Bootstraps: 3, SPEsPerLoop: 4}
	opt.Trace = func(string, sim.Time, sim.Time, string) { during[runtime.NumGoroutine()]++ }
	for _, name := range []string{"edtlp", "hybrid", "mgps", "linux", "ppe-only"} {
		clear(during)
		if _, err := Run(name, opt); err != nil {
			t.Fatal(err)
		}
		if len(during) != 1 || during[before] == 0 {
			t.Errorf("%s: %d goroutines before the run; goroutine counts during it (count: intervals) %v", name, before, during)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: %d goroutines before the run, %d after it", name, before, after)
		}
	}
}

// TestAllocationsDoNotGrowWithOffloads: under every scheduler a run's heap
// allocations are its set-up's, not its off-loads'. Sixteen bootstraps at
// 1,200 calls each allocate exactly what they do at 600: an SPE runs its
// programs in place, every off-load rearms its issuer's signals, and a grant
// fills its MPI process's own buffer. The collector is off while it counts:
// a collection that a longer run happens to start allocates for itself.
// Under the race detector the counts are not exact (race_test.go), so it
// runs only without.
func TestAllocationsDoNotGrowWithOffloads(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	for _, name := range []string{"ppe-only", "linux", "edtlp", "hybrid", "mgps"} {
		allocs := func(calls int) float64 {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			cfg := workload.RAxML42SC()
			cfg.CallsPerBootstrap = calls
			opt := Options{Workload: cfg, Bootstraps: 16, SPEsPerLoop: 4}
			return testing.AllocsPerRun(2, func() {
				if _, err := Run(name, opt); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(600), allocs(1200); short != long {
			t.Errorf("%s: %.0f allocations at 600 calls per bootstrap, %.0f at 1,200", name, short, long)
		}
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
