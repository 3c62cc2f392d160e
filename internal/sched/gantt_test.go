package sched

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cellmg/internal/cellsim"
	"cellmg/internal/policy"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// busyTime sums a component's traced intervals.
func (t *timeline) busyTime(component string) sim.Duration {
	var d sim.Duration
	for _, iv := range t.intervals {
		if iv.component == component {
			d += iv.end.Sub(iv.start)
		}
	}
	return d
}

// utilization is busyTime over the makespan, the chart's percentage column.
func (t *timeline) utilization(component string) float64 {
	if t.end == 0 {
		return 0
	}
	return float64(t.busyTime(component)) / float64(t.end)
}

func TestRecordAndAccounting(t *testing.T) {
	tl := &timeline{}
	tl.record("spe0", 0, sim.Time(10*sim.Microsecond), "compute")
	tl.record("spe0", sim.Time(20*sim.Microsecond), sim.Time(30*sim.Microsecond), "dma")
	tl.record("spe1", 0, sim.Time(40*sim.Microsecond), "compute")
	tl.record("bogus", sim.Time(5), sim.Time(5), "compute") // zero length, ignored

	if len(tl.intervals) != 3 {
		t.Errorf("len = %d, want 3 (zero-length intervals dropped)", len(tl.intervals))
	}
	comps := tl.components()
	if len(comps) != 2 || comps[0] != "spe0" || comps[1] != "spe1" {
		t.Errorf("components = %v", comps)
	}
	if tl.end != sim.Time(40*sim.Microsecond) {
		t.Errorf("end = %v", tl.end)
	}
	if tl.busyTime("spe0") != 20*sim.Microsecond {
		t.Errorf("spe0 busy = %v", tl.busyTime("spe0"))
	}
	if u := tl.utilization("spe0"); u < 0.49 || u > 0.51 {
		t.Errorf("spe0 utilization = %v, want 0.5", u)
	}
	if u := tl.utilization("spe1"); u != 1.0 {
		t.Errorf("spe1 utilization = %v, want 1.0", u)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := &timeline{}
	if tl.end != 0 || tl.utilization("x") != 0 {
		t.Errorf("empty timeline should report zeros")
	}
	if !strings.Contains(tl.gantt(10), "empty") {
		t.Errorf("empty gantt should say so")
	}
}

func TestGanttShape(t *testing.T) {
	tl := &timeline{}
	tl.record("spe0", 0, sim.Time(50*sim.Microsecond), "compute")
	tl.record("spe1", sim.Time(50*sim.Microsecond), sim.Time(100*sim.Microsecond), "compute")
	var out string
	var lines []string
	// 10 columns hold the printed makespan; 2 are narrower than it.
	for _, columns := range []int{2, 10} {
		out = tl.gantt(columns)
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

func TestTraceHookReceivesActivity(t *testing.T) {
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 20
	tl := &timeline{}
	res := RunEDTLP(Options{Workload: cfg, Bootstraps: 2, Trace: tl.record})
	if res.PaperSeconds <= 0 {
		t.Fatalf("run produced no result")
	}
	if len(tl.intervals) == 0 {
		t.Fatalf("trace hook received no intervals")
	}
	comps := strings.Join(tl.components(), " ")
	if !strings.Contains(comps, "cell0.spe0") || !strings.Contains(comps, "cell0.ppe") {
		t.Errorf("trace components = %v", tl.components())
	}
	// The traced SPE busy time must be consistent with the reported mean
	// utilization (same machine, same run).
	if tl.utilization("cell0.spe0") <= 0 {
		t.Errorf("SPE0 should show activity in the trace")
	}

	// Everything a component counts as busy reaches the hook — PPE context
	// switches, kernel switches and resume penalties included — so each lane
	// sums to its component's BusyTime exactly. Five bootstraps oversubscribe
	// the two PPE contexts (EDTLP and MGPS switch at every off-load); under
	// Linux three processes share a context and the quantum expires.
	cfg.CallsPerBootstrap = 150
	for name, start := range map[string]func(*run){
		"linux": func(r *run) { runKernelScheduled(r, cfg.Job(5), false) },
		"edtlp": func(r *run) { r.spawnEventDriven() },
		"mgps": func(r *run) {
			for _, c := range r.cells {
				c.pool = policy.NewAdaptivePool(cellsim.SPEsPerCell, policy.MGPSConfig{})
			}
			r.spawnEventDriven()
		},
	} {
		tl := &timeline{}
		r := newRun(Options{Workload: cfg, Bootstraps: 5, NumCells: 2, Trace: tl.record})
		start(r)
		r.eng.Run()
		switches := 0
		for _, c := range r.machine.Cells {
			if got, want := tl.busyTime(fmt.Sprintf("cell%d.ppe", c.Index)), c.PPE.BusyTime(); got != want {
				t.Errorf("%s: traced %v on cell%d.ppe, PPE.BusyTime() = %v", name, got, c.Index, want)
			}
			switches += c.PPE.Switches() + c.PPE.KernelSwitches()
			for _, spe := range c.SPEs {
				lane := fmt.Sprintf("cell%d.spe%d", c.Index, spe.Index)
				if got, want := tl.busyTime(lane), spe.BusyTime(); got != want {
					t.Errorf("%s: traced %v on %s, SPE.BusyTime() = %v", name, got, lane, want)
				}
			}
		}
		if switches == 0 {
			t.Errorf("%s: no context switch was charged, so the PPE lanes prove nothing", name)
		}
		r.eng.Close()
	}
}

func TestTraceGanttRendersAllSchedulers(t *testing.T) {
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 30
	opt := Options{Workload: cfg, Bootstraps: 2, SPEsPerLoop: 4}
	for _, s := range []string{"ppe-only", "linux", "edtlp", "hybrid", "mgps"} {
		out := TraceGantt(opt, s, 60)
		if !strings.Contains(out, "activity chart") {
			t.Errorf("%s: missing header:\n%s", s, out)
		}
		if !strings.Contains(out, "cell0.ppe") {
			t.Errorf("%s: missing PPE lane", s)
		}
		if s != "ppe-only" && !strings.Contains(out, "cell0.spe0") {
			t.Errorf("%s: missing SPE lane", s)
		}
	}
	if out := TraceGantt(opt, "nonsense", 60); !strings.Contains(out, "unknown scheduler") {
		t.Errorf("unknown scheduler should be reported, got:\n%s", out)
	}
	if out := TraceGantt(Options{}, "edtlp", 60); !strings.Contains(out, "Workload is required") {
		t.Errorf("a nil workload should be reported, got:\n%s", out)
	}
	// Names reach Run from a command line: the whole name has to match, and a
	// loop width has to fit on one Cell.
	for _, c := range []struct{ name, want string }{
		{"EDTLP", "EDTLP"},
		{"edtlp-llp", "EDTLP-LLP(4)"}, // opt.SPEsPerLoop
		{"EDTLP-LLP(2)", "EDTLP-LLP(2)"},
		{"edtlp-llp(8)", "EDTLP-LLP(8)"},
		{"edtlp-llp(4)xyz", ""},
		{"edtlp-llp(4", ""},
		{"edtlp-llp(+4)", ""},
		{"edtlp-llp()", ""},
		{"edtlp-llp(0)", ""},
		{"edtlp-llp(1)", ""},
		{"edtlp-llp(-3)", ""},
		{"edtlp-llp(9)", ""},
		{"edtlp-llp(99)", ""},
		{"mgps ", ""},
	} {
		res, err := Run(c.name, opt)
		switch {
		case c.want == "" && (err == nil || !strings.Contains(err.Error(), "unknown scheduler")):
			t.Errorf("Run(%q) = %q, %v; want an unknown-scheduler error", c.name, res.Scheduler, err)
		case c.want != "" && (err != nil || res.Scheduler != c.want):
			t.Errorf("Run(%q) = %q, %v; want %q", c.name, res.Scheduler, err, c.want)
		}
	}
}

func TestHybridGanttShowsWiderSPEUsageThanEDTLP(t *testing.T) {
	// With 2 bootstraps, EDTLP keeps only 2 SPEs busy while the 4-wide hybrid
	// keeps 8 busy; the traces should reflect that.
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 30
	count := func(scheduler string) int {
		tl := &timeline{}
		opt := Options{Workload: cfg, Bootstraps: 2, SPEsPerLoop: 4, Trace: tl.record}
		if scheduler == "edtlp" {
			RunEDTLP(opt)
		} else {
			RunStaticHybrid(opt)
		}
		busy := 0
		for _, c := range tl.components() {
			if strings.Contains(c, "spe") && tl.busyTime(c) > 0 {
				busy++
			}
		}
		return busy
	}
	edtlpSPEs := count("edtlp")
	hybridSPEs := count("hybrid")
	if edtlpSPEs != 2 {
		t.Errorf("EDTLP with 2 bootstraps should keep exactly 2 SPEs busy, got %d", edtlpSPEs)
	}
	if hybridSPEs != 8 {
		t.Errorf("EDTLP-LLP(4) with 2 bootstraps should keep all 8 SPEs busy, got %d", hybridSPEs)
	}
}

// ganttCharts renders TraceGantt for every scheduler on one and two Cells at
// 60 and 100 columns, each chart under a line naming its configuration.
func ganttCharts() string {
	cfg := workload.RAxML42SC()
	var b strings.Builder
	for _, cells := range []int{1, 2} {
		for _, columns := range []int{60, 100} {
			for _, s := range []string{"ppe-only", "linux", "edtlp", "hybrid", "mgps"} {
				opt := Options{Workload: cfg, Bootstraps: 5, NumCells: cells, SPEsPerLoop: 4}
				fmt.Fprintf(&b, "=== %s cells=%d columns=%d\n", s, cells, columns)
				b.WriteString(TraceGantt(opt, s, columns))
			}
		}
	}
	return b.String()
}

// TestTraceGanttMatchesGolden holds every chart ganttCharts renders to
// testdata/gantt_golden.txt, written by this function at b0efb34, when the
// interval recording and the chart lived in a package of their own. A diff
// is a changed chart or a changed simulation — do not regenerate the file.
func TestTraceGanttMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/gantt_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := ganttCharts(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("chart line %d differs:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("charts have %d lines, golden has %d", len(gl), len(wl))
	}
}
