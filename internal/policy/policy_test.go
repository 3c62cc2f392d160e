package policy

import (
	"testing"
	"testing/quick"
)

func TestDefaultMGPSConfigFollowsPaper(t *testing.T) {
	cfg := DefaultMGPSConfig(8)
	if cfg.Window != 8 {
		t.Errorf("window = %d, want 8 (history length = number of SPEs)", cfg.Window)
	}
	if cfg.UThreshold != 4 {
		t.Errorf("threshold = %d, want 4 (U <= 4 activates LLP)", cfg.UThreshold)
	}
}

func TestMGPSStartsConservativelyInEDTLP(t *testing.T) {
	m := NewMGPS(DefaultMGPSConfig(8))
	d := m.Current()
	if d.UseLLP {
		t.Errorf("MGPS must start in EDTLP mode (one SPE per task)")
	}
	if d.SPEsPerLoop != 1 {
		t.Errorf("initial SPEs per loop = %d, want 1", d.SPEsPerLoop)
	}
}

// simulateWindow feeds one full window of off-loads/completions issued
// round-robin by nProcs processes and returns the resulting decision.
func simulateWindow(m *MGPS, nProcs, waiting int) (Decision, bool) {
	w := m.Config().Window
	var d Decision
	var changed bool
	for i := 0; i < w; i++ {
		proc := i % nProcs
		m.RecordOffload(proc)
		d, changed = m.RecordCompletion(proc, waiting)
	}
	return d, changed
}

func TestMGPSActivatesLLPForLowTaskParallelism(t *testing.T) {
	// 2 concurrent bootstraps on an 8-SPE Cell: U = 2 <= 4, so LLP should be
	// activated with 8/2 = 4 SPEs per loop.
	m := NewMGPS(DefaultMGPSConfig(8))
	d, changed := simulateWindow(m, 2, 2)
	if !changed {
		t.Errorf("decision should change after the first window")
	}
	if !d.UseLLP || d.SPEsPerLoop != 4 {
		t.Errorf("decision = %v, want EDTLP-LLP with 4 SPEs per loop", d)
	}
}

func TestMGPSSPEsPerLoopByWaitingTasks(t *testing.T) {
	cases := []struct {
		procs, waiting, want int
	}{
		{1, 1, 8},
		{2, 2, 4},
		{3, 3, 2},
		{4, 4, 2},
	}
	for _, c := range cases {
		m := NewMGPS(DefaultMGPSConfig(8))
		d, _ := simulateWindow(m, c.procs, c.waiting)
		if !d.UseLLP || d.SPEsPerLoop != c.want {
			t.Errorf("%d procs / %d waiting: decision = %v, want LLP with %d SPEs per loop",
				c.procs, c.waiting, d, c.want)
		}
	}
}

func TestMGPSKeepsEDTLPForHighTaskParallelism(t *testing.T) {
	// 8 concurrent bootstraps: U = 8 > 4, EDTLP retained.
	m := NewMGPS(DefaultMGPSConfig(8))
	d, _ := simulateWindow(m, 8, 8)
	if d.UseLLP {
		t.Errorf("decision = %v, want plain EDTLP for U=8", d)
	}
	// 5 concurrent bootstraps: U = 5 > 4, EDTLP retained (paper: LLP only
	// helps in conjunction with low-degree TLP).
	m2 := NewMGPS(DefaultMGPSConfig(8))
	if d, _ := simulateWindow(m2, 5, 5); d.UseLLP {
		t.Errorf("decision = %v, want plain EDTLP for U=5", d)
	}
}

func TestMGPSBoundaryUEqualsThreshold(t *testing.T) {
	// U = 4 is within the threshold (U <= 4), so LLP activates with 2 SPEs.
	m := NewMGPS(DefaultMGPSConfig(8))
	d, _ := simulateWindow(m, 4, 4)
	if !d.UseLLP || d.SPEsPerLoop != 2 {
		t.Errorf("decision = %v, want LLP with 2 SPEs per loop at the threshold", d)
	}
}

func TestMGPSDeactivatesLLPWhenParallelismRises(t *testing.T) {
	m := NewMGPS(DefaultMGPSConfig(8))
	if d, _ := simulateWindow(m, 2, 2); !d.UseLLP {
		t.Fatalf("expected LLP after a low-parallelism window")
	}
	d, changed := simulateWindow(m, 8, 8)
	if !changed || d.UseLLP {
		t.Errorf("decision = %v (changed=%v), want a switch back to EDTLP", d, changed)
	}
	if m.Switches() != 2 {
		t.Errorf("switches = %d, want 2", m.Switches())
	}
	if m.Evaluations() != 2 {
		t.Errorf("evaluations = %d, want 2", m.Evaluations())
	}
}

func TestMGPSOnlyEvaluatesAtWindowBoundaries(t *testing.T) {
	m := NewMGPS(DefaultMGPSConfig(8))
	for i := 0; i < 7; i++ {
		m.RecordOffload(0)
		if _, changed := m.RecordCompletion(0, 1); changed {
			t.Fatalf("decision changed after %d completions, before the window boundary", i+1)
		}
	}
	if m.U() != 1 {
		t.Errorf("U mid-window = %d, want 1", m.U())
	}
	if _, changed := m.RecordCompletion(0, 1); !changed {
		t.Errorf("decision should be re-evaluated (and here changed) at the 8th completion")
	}
}

func TestMGPSWindowResetsBetweenEvaluations(t *testing.T) {
	m := NewMGPS(DefaultMGPSConfig(8))
	simulateWindow(m, 8, 8) // high parallelism window
	if m.U() != 0 {
		t.Errorf("U after evaluation = %d, want 0 (window reset)", m.U())
	}
	// The next window sees only one process; stale history must not inflate U.
	d, _ := simulateWindow(m, 1, 1)
	if !d.UseLLP || d.SPEsPerLoop != 8 {
		t.Errorf("decision = %v, want LLP with 8 SPEs per loop once parallelism drops to 1", d)
	}
}

func TestMGPSWaitingTasksClamp(t *testing.T) {
	m := NewMGPS(DefaultMGPSConfig(8))
	d, _ := simulateWindow(m, 1, 0) // degenerate waiting count
	if !d.UseLLP || d.SPEsPerLoop != 8 {
		t.Errorf("decision = %v, want 8 SPEs per loop when nothing else is waiting", d)
	}
	m2 := NewMGPS(DefaultMGPSConfig(8))
	d, _ = simulateWindow(m2, 2, 100) // more waiting tasks than SPEs
	if d.UseLLP {
		t.Errorf("decision = %v, want EDTLP when waiting tasks exceed SPEs (8/100 -> 1 SPE/loop)", d)
	}
}

func TestMGPSCustomConfigDefaults(t *testing.T) {
	m := NewMGPS(MGPSConfig{NumSPEs: 16})
	if m.Config().Window != 16 || m.Config().UThreshold != 8 {
		t.Errorf("defaults for 16 SPEs = %+v, want window 16, threshold 8", m.Config())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("NumSPEs <= 0 should panic")
		}
	}()
	NewMGPS(MGPSConfig{})
}

func TestStaticLLPDecision(t *testing.T) {
	if d := StaticLLPDecision(4); !d.UseLLP || d.SPEsPerLoop != 4 {
		t.Errorf("StaticLLPDecision(4) = %v", d)
	}
	if d := StaticLLPDecision(1); d.UseLLP {
		t.Errorf("StaticLLPDecision(1) = %v, want EDTLP", d)
	}
	if d := StaticLLPDecision(0); d.UseLLP || d.SPEsPerLoop != 1 {
		t.Errorf("StaticLLPDecision(0) = %v, want EDTLP with 1 SPE", d)
	}
}

func TestDecisionString(t *testing.T) {
	if s := (Decision{UseLLP: false, SPEsPerLoop: 1}).String(); s != "EDTLP" {
		t.Errorf("String = %q", s)
	}
	if s := (Decision{UseLLP: true, SPEsPerLoop: 4}).String(); s != "EDTLP-LLP(4 SPEs/loop)" {
		t.Errorf("String = %q", s)
	}
}

// Property: for any number of processes and waiting tasks, the decision's
// SPEs-per-loop stays within [1, NumSPEs] and LLP is active only when the
// observed U is at or below the threshold.
func TestPropertyMGPSDecisionBounds(t *testing.T) {
	f := func(procsRaw, waitingRaw uint8) bool {
		procs := int(procsRaw%12) + 1
		waiting := int(waitingRaw % 20)
		m := NewMGPS(DefaultMGPSConfig(8))
		d, _ := simulateWindow(m, procs, waiting)
		if d.SPEsPerLoop < 1 || d.SPEsPerLoop > 8 {
			return false
		}
		u := procs
		if u > 8 {
			u = 8
		}
		if u > m.Config().Window {
			u = m.Config().Window
		}
		if d.UseLLP && u > m.Config().UThreshold {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorSingleAcquisition(t *testing.T) {
	a := NewSPEAllocator(4)
	if a.Size() != 4 || a.FreeCount() != 4 {
		t.Fatalf("fresh allocator: size=%d free=%d", a.Size(), a.FreeCount())
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		g, ok := a.AcquireGroup(1, nil)
		if !ok || len(g) != 1 || seen[g[0]] {
			t.Fatalf("acquisition %d failed or returned duplicate %v", i, g)
		}
		seen[g[0]] = true
	}
	if _, ok := a.AcquireGroup(1, nil); ok {
		t.Errorf("acquisition beyond capacity should fail")
	}
	a.Release(2)
	if a.FreeCount() != 1 {
		t.Errorf("release bookkeeping wrong")
	}
	if g, ok := a.AcquireGroup(1, nil); !ok || g[0] != 2 {
		t.Errorf("re-acquisition returned %v, want the released SPE 2", g)
	}
}

func TestAllocatorGroups(t *testing.T) {
	a := NewSPEAllocator(8)
	g1, ok := a.AcquireGroup(4, nil)
	if !ok || len(g1) != 4 {
		t.Fatalf("group acquisition failed: %v", g1)
	}
	g2, ok := a.AcquireGroup(4, nil)
	if !ok || len(g2) != 4 {
		t.Fatalf("second group acquisition failed: %v", g2)
	}
	if _, ok := a.AcquireGroup(1, nil); ok {
		t.Errorf("allocator should be exhausted")
	}
	// Failure must not leak partial claims.
	a.ReleaseGroup(g2)
	if _, ok := a.AcquireGroup(5, nil); ok {
		t.Errorf("group of 5 should fail with only 4 free")
	}
	if a.FreeCount() != 4 {
		t.Errorf("failed group acquisition leaked claims: free=%d, want 4", a.FreeCount())
	}
	if _, ok := a.AcquireGroup(0, nil); ok {
		t.Errorf("empty group acquisition should fail")
	}
}

func TestAllocatorMisuse(t *testing.T) {
	a := NewSPEAllocator(2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("double release", func() { a.Release(0) })
	g, _ := a.AcquireGroup(1, nil)
	a.Release(g[0])
	mustPanic("out of range", func() { a.Release(7) })
	mustPanic("zero size", func() { NewSPEAllocator(0) })
}

// Property: any interleaving of acquire/release keeps free count consistent.
func TestPropertyAllocatorConservation(t *testing.T) {
	f := func(ops []bool) bool {
		a := NewSPEAllocator(8)
		var held []int
		for _, acquire := range ops {
			if acquire {
				if g, ok := a.AcquireGroup(1, nil); ok {
					held = append(held, g[0])
				}
			} else if len(held) > 0 {
				a.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if a.FreeCount()+len(held) != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
