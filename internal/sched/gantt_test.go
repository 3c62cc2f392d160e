package sched

import (
	"fmt"
	"strings"
	"testing"

	"cellmg/internal/cellsim"
	"cellmg/internal/policy"
	"cellmg/internal/trace"
	"cellmg/internal/workload"
)

func TestTraceHookReceivesActivity(t *testing.T) {
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 20
	tl := trace.New()
	res := RunEDTLP(Options{Workload: cfg, Bootstraps: 2, Trace: tl.Record})
	if res.PaperSeconds <= 0 {
		t.Fatalf("run produced no result")
	}
	if tl.Len() == 0 {
		t.Fatalf("trace hook received no intervals")
	}
	comps := strings.Join(tl.Components(), " ")
	if !strings.Contains(comps, "cell0.spe0") || !strings.Contains(comps, "cell0.ppe") {
		t.Errorf("trace components = %v", tl.Components())
	}
	// The traced SPE busy time must be consistent with the reported mean
	// utilization (same machine, same run).
	if tl.Utilization("cell0.spe0") <= 0 {
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
		tl := trace.New()
		r := newRun(Options{Workload: cfg, Bootstraps: 5, NumCells: 2, Trace: tl.Record})
		start(r)
		r.eng.Run()
		switches := 0
		for _, c := range r.machine.Cells {
			if got, want := tl.BusyTime(fmt.Sprintf("cell%d.ppe", c.Index)), c.PPE.BusyTime(); got != want {
				t.Errorf("%s: traced %v on cell%d.ppe, PPE.BusyTime() = %v", name, got, c.Index, want)
			}
			switches += c.PPE.Switches() + c.PPE.KernelSwitches()
			for _, spe := range c.SPEs {
				lane := fmt.Sprintf("cell%d.spe%d", c.Index, spe.Index)
				if got, want := tl.BusyTime(lane), spe.BusyTime(); got != want {
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
		tl := trace.New()
		opt := Options{Workload: cfg, Bootstraps: 2, SPEsPerLoop: 4, Trace: tl.Record}
		if scheduler == "edtlp" {
			RunEDTLP(opt)
		} else {
			RunStaticHybrid(opt)
		}
		busy := 0
		for _, c := range tl.Components() {
			if strings.Contains(c, "spe") && tl.BusyTime(c) > 0 {
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
