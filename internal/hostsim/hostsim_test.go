package hostsim

import (
	"math"
	"testing"
	"testing/quick"
)

// eightCore is a third topology for the checks below: one bootstrap per core,
// eight cores, no SMT — the Cell's shape seen as a conventional machine.
func eightCore(bootstrapSeconds float64) *Machine {
	return &Machine{
		Name: "Cell (reference)", Sockets: 1, CoresPerSocket: 8, ThreadsPerCore: 1,
		BootstrapSeconds: bootstrapSeconds, SMTContention: 1.0, MemoryContention: 1.0,
	}
}

func TestPredefinedMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{DualXeonHT(), Power5(), eightCore(28.5)} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTopologyCounts(t *testing.T) {
	xeon := DualXeonHT()
	if xeon.Contexts() != 4 || xeon.Cores() != 2 {
		t.Errorf("Xeon topology: %d contexts / %d cores, want 4/2", xeon.Contexts(), xeon.Cores())
	}
	p5 := Power5()
	if p5.Contexts() != 4 || p5.Cores() != 2 {
		t.Errorf("Power5 topology: %d contexts / %d cores, want 4/2", p5.Contexts(), p5.Cores())
	}
}

func TestSingleBootstrapIsSingleThreadTime(t *testing.T) {
	for _, m := range []*Machine{DualXeonHT(), Power5()} {
		if got := m.RunBootstraps(1); got != m.BootstrapSeconds {
			t.Errorf("%s: 1 bootstrap = %.1f, want %.1f (no SMT sharing needed)", m.Name, got, m.BootstrapSeconds)
		}
	}
}

func TestTwoBootstrapsSpreadAcrossCores(t *testing.T) {
	// With two jobs and two cores, nobody shares a core, so there is no SMT
	// slow-down.
	for _, m := range []*Machine{DualXeonHT(), Power5()} {
		if got := m.RunBootstraps(2); got != m.BootstrapSeconds {
			t.Errorf("%s: 2 bootstraps = %.1f, want %.1f", m.Name, got, m.BootstrapSeconds)
		}
	}
}

func TestFullWaveAppliesSMTContention(t *testing.T) {
	p5 := Power5()
	got := p5.RunBootstraps(4)
	want := p5.BootstrapSeconds * p5.SMTContention
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Power5: 4 bootstraps = %.2f, want %.2f", got, want)
	}
}

func TestWaveCountGrowth(t *testing.T) {
	xeon := DualXeonHT()
	t16 := xeon.RunBootstraps(16)
	t128 := xeon.RunBootstraps(128)
	if r := t128 / t16; math.Abs(r-8.0) > 1e-9 {
		t.Errorf("Xeon 128/16 bootstrap ratio = %.2f, want 8 (both are whole waves)", r)
	}
	// Calibration targets from Figure 10: ~180 s at 16 bootstraps, ~1400 s at
	// 128 bootstraps.
	if t16 < 150 || t16 > 210 {
		t.Errorf("Xeon at 16 bootstraps = %.0f s, want ~180 s", t16)
	}
	if t128 < 1200 || t128 > 1650 {
		t.Errorf("Xeon at 128 bootstraps = %.0f s, want ~1400 s", t128)
	}
}

func TestPower5CalibrationTargets(t *testing.T) {
	p5 := Power5()
	t128 := p5.RunBootstraps(128)
	// The Cell finishes 128 bootstraps in roughly 690-700 paper-seconds;
	// the Power5 should land 5-10% above that.
	if t128 < 700 || t128 > 820 {
		t.Errorf("Power5 at 128 bootstraps = %.0f s, want ~750 s", t128)
	}
}

func TestPartialFinalWaveFasterThanFullWave(t *testing.T) {
	p5 := Power5()
	t4 := p5.RunBootstraps(4)
	t6 := p5.RunBootstraps(6)
	t8 := p5.RunBootstraps(8)
	if !(t4 < t6 && t6 < t8) {
		t.Errorf("expected monotone growth, got %v %v %v", t4, t6, t8)
	}
	// 6 = full wave + half wave (2 jobs on separate cores, no SMT penalty).
	want := p5.BootstrapSeconds*p5.SMTContention + p5.BootstrapSeconds
	if math.Abs(t6-want) > 1e-9 {
		t.Errorf("6 bootstraps = %.2f, want %.2f", t6, want)
	}
}

func TestValidationFailures(t *testing.T) {
	bad := []*Machine{
		{Name: "no-topology", BootstrapSeconds: 1, SMTContention: 1, MemoryContention: 1},
		{Name: "no-time", Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1, SMTContention: 1, MemoryContention: 1},
		{Name: "bad-contention", Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1, BootstrapSeconds: 1, SMTContention: 0.5, MemoryContention: 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s should fail validation", m.Name)
		}
	}
}

func TestMemoryContentionApplied(t *testing.T) {
	m := &Machine{
		Name: "mem", Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1,
		BootstrapSeconds: 10, SMTContention: 1.0, MemoryContention: 1.2,
	}
	if got := m.RunBootstraps(1); got != 10 {
		t.Errorf("single job should not pay memory contention, got %.1f", got)
	}
	if got := m.RunBootstraps(2); math.Abs(got-12) > 1e-9 {
		t.Errorf("two jobs on two cores should pay memory contention, got %.1f", got)
	}
}

// Property: wall-clock time is non-decreasing in the number of bootstraps and
// never better than perfect speedup over the single-thread time.
func TestPropertyMonotoneAndBounded(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%150) + 1
		for _, m := range []*Machine{DualXeonHT(), Power5()} {
			tN := m.RunBootstraps(n)
			tN1 := m.RunBootstraps(n + 1)
			if tN1 < tN {
				return false
			}
			ideal := float64(n) * m.BootstrapSeconds / float64(m.Contexts())
			if tN < ideal-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
