package trace

import (
	"strings"
	"testing"

	"cellmg/internal/cellsim"
	"cellmg/internal/sim"
)

func TestRecordAndAccounting(t *testing.T) {
	tl := New()
	tl.Record("spe0", 0, sim.Time(10*sim.Microsecond), "compute")
	tl.Record("spe0", sim.Time(20*sim.Microsecond), sim.Time(30*sim.Microsecond), "dma")
	tl.Record("spe1", 0, sim.Time(40*sim.Microsecond), "compute")
	tl.Record("bogus", sim.Time(5), sim.Time(5), "compute") // zero length, ignored

	if tl.Len() != 3 {
		t.Errorf("len = %d, want 3 (zero-length intervals dropped)", tl.Len())
	}
	comps := tl.Components()
	if len(comps) != 2 || comps[0] != "spe0" || comps[1] != "spe1" {
		t.Errorf("components = %v", comps)
	}
	if tl.End() != sim.Time(40*sim.Microsecond) {
		t.Errorf("end = %v", tl.End())
	}
	if tl.BusyTime("spe0") != 20*sim.Microsecond {
		t.Errorf("spe0 busy = %v", tl.BusyTime("spe0"))
	}
	if u := tl.Utilization("spe0"); u < 0.49 || u > 0.51 {
		t.Errorf("spe0 utilization = %v, want 0.5", u)
	}
	if u := tl.Utilization("spe1"); u != 1.0 {
		t.Errorf("spe1 utilization = %v, want 1.0", u)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := New()
	if tl.End() != 0 || tl.Utilization("x") != 0 {
		t.Errorf("empty timeline should report zeros")
	}
	if !strings.Contains(tl.Gantt(10), "empty") {
		t.Errorf("empty gantt should say so")
	}
}

func TestGanttShape(t *testing.T) {
	tl := New()
	tl.Record("spe0", 0, sim.Time(50*sim.Microsecond), "compute")
	tl.Record("spe1", sim.Time(50*sim.Microsecond), sim.Time(100*sim.Microsecond), "compute")
	var out string
	var lines []string
	// 10 columns hold the printed makespan; 2 are narrower than it.
	for _, columns := range []int{2, 10} {
		out = tl.Gantt(columns)
		lines = strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 3 {
			t.Fatalf("gantt(%d) should have a header and two rows:\n%s", columns, out)
		}
		if !strings.Contains(lines[1], "spe0") || !strings.Contains(lines[2], "spe1") {
			t.Errorf("gantt(%d) rows mislabelled:\n%s", columns, out)
		}
	}
	// spe0 busy in the first half, idle in the second; spe1 the reverse.
	row0 := lines[1]
	if !strings.Contains(row0, "#####") || !strings.Contains(row0, ".....") {
		t.Errorf("spe0 row should be half busy, half idle: %q", row0)
	}
	if !strings.Contains(row0, "50.0%") {
		t.Errorf("spe0 row should report 50%% utilization: %q", row0)
	}
}

func TestIntegrationWithCellsimHook(t *testing.T) {
	eng := sim.NewEngine()
	m := cellsim.NewMachine(eng, cellsim.DefaultCostModel(), 1)
	tl := New()
	kinds := map[string]sim.Duration{} // SPE 0's busy time by activity kind
	m.Trace = func(component string, start, end sim.Time, kind string) {
		tl.Record(component, start, end, kind)
		if component == "cell0.spe0" {
			kinds[kind] += end.Sub(start)
		}
	}
	prog := []cellsim.Op{cellsim.DMAGet(4096), cellsim.Compute(20 * sim.Microsecond), cellsim.DMAPut(4096)}
	if err := m.SPE(0).Submit(prog, nil); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("ppe", func(p *sim.Proc) {
		m.Cells[0].PPE.AcquireContext(p)
		m.Cells[0].PPE.Compute(p, 5*sim.Microsecond)
		m.Cells[0].PPE.ReleaseContext()
	})
	eng.Run()
	if tl.Len() < 4 {
		t.Fatalf("expected at least 4 intervals (2 DMA + 1 compute + 1 PPE), got %d", tl.Len())
	}
	comps := tl.Components()
	joined := strings.Join(comps, " ")
	if !strings.Contains(joined, "cell0.spe0") || !strings.Contains(joined, "cell0.ppe") {
		t.Errorf("components = %v", comps)
	}
	if kinds["compute"] != 20*sim.Microsecond {
		t.Errorf("spe compute time = %v, want 20us", kinds["compute"])
	}
	if kinds["dma"] == 0 {
		t.Errorf("DMA intervals should be traced")
	}
}
