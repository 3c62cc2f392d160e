package workload

import (
	"math"
	"testing"
	"testing/quick"

	"cellmg/internal/sim"
)

func TestRAxML42SCValidates(t *testing.T) {
	cfg := RAxML42SC()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default configuration invalid: %v", err)
	}
}

func TestMeanSPETimeMatchesPaper(t *testing.T) {
	cfg := RAxML42SC()
	mean := cfg.MeanSPETime()
	// Section 5.2: "The average SPE computing time is 96us."
	if mean < 92*sim.Microsecond || mean > 100*sim.Microsecond {
		t.Errorf("mean SPE task = %v, want ~96us", mean)
	}
}

func TestSPECoverageMatchesPaper(t *testing.T) {
	cfg := RAxML42SC()
	cov := cfg.SPECoverage()
	// Section 5.2: 90% of a bootstrap is spent computing on SPEs.
	if cov < 0.88 || cov > 0.92 {
		t.Errorf("SPE coverage = %.3f, want ~0.90", cov)
	}
}

func TestFunctionTimeSharesMatchProfile(t *testing.T) {
	cfg := RAxML42SC()
	// gprof profile from Section 5.1: newview 76.8%, makenewz 19.6%,
	// evaluate 2.37% of likelihood time. Compute the share of off-loaded
	// time attributable to each function under the configured mix.
	var total float64
	share := map[FunctionClass]float64{}
	for i, f := range cfg.Functions {
		v := cfg.Mix[i] * float64(f.SPETime)
		share[f.Class] += v
		total += v
	}
	checks := []struct {
		class FunctionClass
		want  float64
		tol   float64
	}{
		{Newview, 0.768, 0.05},
		{Makenewz, 0.196, 0.05},
		{Evaluate, 0.0237, 0.015},
	}
	for _, c := range checks {
		got := share[c.class] / total
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v time share = %.3f, want %.3f ± %.3f", c.class, got, c.want, c.tol)
		}
	}
}

func TestOptimizationFactorsMatchSection51(t *testing.T) {
	cfg := RAxML42SC()
	for _, f := range cfg.Functions {
		ppeRatio := float64(f.PPETime) / float64(f.SPETime)
		naiveRatio := float64(f.NaiveSPETime) / float64(f.SPETime)
		// 38.23s PPE-only vs 28.82s optimized => PPE version ~1.36x the
		// optimized SPE version; 50.38s naive vs 28.82s => ~1.83x.
		if ppeRatio < 1.25 || ppeRatio > 1.5 {
			t.Errorf("%s: PPE/SPE ratio = %.2f, want ~1.36", f.Name, ppeRatio)
		}
		if naiveRatio < 1.7 || naiveRatio > 2.0 {
			t.Errorf("%s: naive/optimized ratio = %.2f, want ~1.83", f.Name, naiveRatio)
		}
	}
}

func TestLoopStructureDecomposition(t *testing.T) {
	cfg := RAxML42SC()
	for _, f := range cfg.Functions {
		if f.LoopIterations != 228 {
			t.Errorf("%s: loop iterations = %d, want 228 (42_SC patterns)", f.Name, f.LoopIterations)
		}
		if got := f.LoopTime() + f.SerialTime(); got != f.SPETime {
			t.Errorf("%s: loop + serial = %v, want %v", f.Name, got, f.SPETime)
		}
		per := f.IterationTime()
		if per <= 0 {
			t.Errorf("%s: non-positive iteration time", f.Name)
		}
		total := per * sim.Duration(f.LoopIterations)
		if diff := total - f.LoopTime(); diff < -sim.Duration(f.LoopIterations) || diff > sim.Duration(f.LoopIterations) {
			t.Errorf("%s: iterations*iterTime = %v deviates from loop time %v", f.Name, total, f.LoopTime())
		}
	}
}

func TestBootstrapDeterministicAndAlternating(t *testing.T) {
	cfg := RAxML42SC()
	a := cfg.Bootstrap(3)
	b := cfg.Bootstrap(3)
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("two generations of the same bootstrap differ in length")
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs between generations", i)
		}
	}
	if a.OffloadCalls() != cfg.CallsPerBootstrap {
		t.Errorf("off-load calls = %d, want %d", a.OffloadCalls(), cfg.CallsPerBootstrap)
	}
	for i, s := range a.Steps {
		wantKind := PPECompute
		if i%2 == 1 {
			wantKind = OffloadCall
		}
		if s.Kind != wantKind {
			t.Fatalf("step %d kind = %v, want alternating PPE/off-load", i, s.Kind)
		}
		if s.Kind == OffloadCall && (s.Scale < 0.79 || s.Scale > 1.21) {
			t.Errorf("step %d scale = %v outside jitter bounds", i, s.Scale)
		}
	}
}

func TestBootstrapsDifferButAreStatisticallyAlike(t *testing.T) {
	cfg := RAxML42SC()
	p0 := cfg.Bootstrap(0)
	p1 := cfg.Bootstrap(1)
	same := true
	for i := range p0.Steps {
		if p0.Steps[i] != p1.Steps[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different bootstraps should use different random streams")
	}
	// Their total SPE work should agree within a few percent (same law).
	t0, t1 := float64(p0.TotalSPETime()), float64(p1.TotalSPETime())
	if rel := math.Abs(t0-t1) / t0; rel > 0.05 {
		t.Errorf("bootstrap work differs by %.1f%%, want < 5%%", rel*100)
	}
}

func TestJobGeneratesRequestedProcesses(t *testing.T) {
	cfg := RAxML42SC()
	job := cfg.Job(5)
	if len(job) != 5 {
		t.Fatalf("job has %d processes, want 5", len(job))
	}
	for i, p := range job {
		if p.ID != i {
			t.Errorf("process %d has ID %d", i, p.ID)
		}
	}
}

func TestScaleFactor(t *testing.T) {
	cfg := RAxML42SC()
	want := float64(cfg.RealCallsPerBootstrap) / float64(cfg.CallsPerBootstrap)
	if got := cfg.ScaleFactor(); math.Abs(got-want) > 1e-9 {
		t.Errorf("scale factor = %v, want %v", got, want)
	}
	cfg.RealCallsPerBootstrap = 0
	if cfg.ScaleFactor() != 1 {
		t.Errorf("scale factor without a real call count should be 1")
	}
}

func TestPaperEquivalentBootstrapDuration(t *testing.T) {
	// One bootstrap executed serially (PPE gaps + optimized SPE calls)
	// should take ~28.5 paper-equivalent seconds (Table 1, 1 worker).
	cfg := RAxML42SC()
	p := cfg.Bootstrap(0)
	simTime := float64(p.TotalPPETime()+p.TotalSPETime()) / float64(sim.Second)
	paperSeconds := simTime * cfg.ScaleFactor()
	if paperSeconds < 26 || paperSeconds > 31 {
		t.Errorf("paper-equivalent single-bootstrap time = %.2fs, want ~28.5s", paperSeconds)
	}
}

func TestCloneIsDeep(t *testing.T) {
	cfg := RAxML42SC()
	cl := cfg.Clone()
	cl.Functions[0].SPETime = 1
	cl.Mix[0] = 99
	cl.CallsPerBootstrap = 7
	if cfg.Functions[0].SPETime == 1 || cfg.Mix[0] == 99 || cfg.CallsPerBootstrap == 7 {
		t.Errorf("mutating a clone affected the original")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	broken := []func(c *Config){
		func(c *Config) { c.Functions = nil },
		func(c *Config) { c.Mix = c.Mix[:1] },
		func(c *Config) { c.Mix = []float64{0, 0, 0} },
		func(c *Config) { c.Mix = []float64{-1, 1, 1} },
		func(c *Config) { c.CallsPerBootstrap = 0 },
		func(c *Config) { c.Functions[0].SPETime = 0 },
		func(c *Config) { c.Functions[0].LoopFraction = 1.5 },
	}
	for i, breakIt := range broken {
		c := RAxML42SC()
		breakIt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("broken config %d passed validation", i)
		}
	}
}

func TestSyntheticWorkload(t *testing.T) {
	cfg := synthetic("uniform", 50*sim.Microsecond, 5*sim.Microsecond, 0.5, 100, 200)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("synthetic config invalid: %v", err)
	}
	p := cfg.Bootstrap(0)
	if p.OffloadCalls() != 200 {
		t.Errorf("calls = %d, want 200", p.OffloadCalls())
	}
	if p.TotalSPETime() != 200*50*sim.Microsecond {
		t.Errorf("total SPE time = %v, want 10ms (no jitter)", p.TotalSPETime())
	}
	if cfg.ScaleFactor() != 1 {
		t.Errorf("synthetic workloads are unscaled")
	}
}

func TestFunctionClassString(t *testing.T) {
	if Newview.String() != "newview" || Evaluate.String() != "evaluate" || Makenewz.String() != "makenewz" {
		t.Errorf("unexpected class names: %v %v %v", Newview, Evaluate, Makenewz)
	}
	if FunctionClass(99).String() == "" {
		t.Errorf("unknown class should still produce a string")
	}
}

// Property: for any jitter in [0, 0.5] and call count, generated scales stay
// within bounds and the process alternates strictly.
func TestPropertyGeneratedScalesWithinJitterBounds(t *testing.T) {
	f := func(jitterRaw uint8, callsRaw uint8, seed int64) bool {
		jitter := float64(jitterRaw%50) / 100.0
		calls := int(callsRaw%100) + 1
		cfg := RAxML42SC()
		cfg.Jitter = jitter
		cfg.CallsPerBootstrap = calls
		cfg.Seed = seed
		p := cfg.Bootstrap(0)
		if len(p.Steps) != 2*calls {
			return false
		}
		lo, hi := 1-jitter-1e-9, 1+jitter+1e-9
		for _, s := range p.Steps {
			if s.Kind == OffloadCall && (s.Scale < lo || s.Scale > hi) {
				return false
			}
			if s.Kind == PPECompute {
				g := float64(s.Duration) / float64(cfg.MeanPPEGap)
				if g < lo || g > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
