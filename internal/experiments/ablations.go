package experiments

import (
	"cellmg/internal/cellsim"
	"cellmg/internal/policy"
	"cellmg/internal/sched"
	"cellmg/internal/sim"
	"cellmg/internal/stats"
)

// AblationSwitchCostQuantum (E8) studies the two constants the EDTLP
// discussion of Section 5.2 hinges on: the 1.5 us user-level context switch
// must stay far below the 96 us task granularity for oversubscription to be
// worthwhile, and the kernel's 10 ms quantum is what cripples the Linux
// baseline.
func AblationSwitchCostQuantum(cfg Config) Report {
	wl := cfg.effectiveWorkload()
	workers := 8
	if cfg.Quick {
		workers = 4
	}

	// Sweep the user-level context switch cost.
	switchCosts := []sim.Duration{500 * sim.Nanosecond, 1500 * sim.Nanosecond, 5 * sim.Microsecond,
		20 * sim.Microsecond, 50 * sim.Microsecond}
	switchTab := stats.NewTable("EDTLP sensitivity to the context switch cost (8 workers, seconds)",
		"switch cost (us)", "EDTLP")
	switchSeries := &stats.Series{Name: "EDTLP vs switch cost"}
	for _, sc := range switchCosts {
		cost := cellsim.DefaultCostModel()
		cost.ContextSwitch = sc
		r := sched.RunEDTLP(sched.Options{Workload: wl, Bootstraps: workers, Cost: cost})
		switchSeries.Add(sc.Microseconds(), r.PaperSeconds)
		switchTab.AddRowf(sc.Microseconds(), r.PaperSeconds)
	}

	// Sweep the kernel quantum for the Linux baseline.
	quanta := []sim.Duration{100 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}
	quantumTab := stats.NewTable("Linux baseline sensitivity to the kernel quantum (8 workers, seconds)",
		"quantum (ms)", "Linux")
	quantumSeries := &stats.Series{Name: "Linux vs quantum"}
	for _, q := range quanta {
		cost := cellsim.DefaultCostModel()
		cost.KernelQuantum = q
		r := sched.RunLinux(sched.Options{Workload: wl, Bootstraps: workers, Cost: cost})
		quantumSeries.Add(float64(q)/float64(sim.Millisecond), r.PaperSeconds)
		quantumTab.AddRowf(float64(q)/float64(sim.Millisecond), r.PaperSeconds)
	}

	cheap, _ := switchSeries.Y(switchCosts[0].Microseconds())
	paper, _ := switchSeries.Y(1.5)
	expensive, _ := switchSeries.Y(switchCosts[len(switchCosts)-1].Microseconds())
	qFast, _ := quantumSeries.Y(0.1)
	qPaper, _ := quantumSeries.Y(10)
	quantumSensitivity := stats.RelErr(qFast, qPaper)

	return Report{
		ID:     "E8",
		Title:  "Ablation — context switch cost and kernel quantum",
		Tables: []*stats.Table{switchTab, quantumTab},
		Series: []*stats.Series{switchSeries, quantumSeries},
		Claims: []Claim{
			claim("a 1.5 us switch is cheap enough that EDTLP performs as if switches were free",
				paper < cheap*1.05,
				"EDTLP %.1fs at 1.5us vs %.1fs at 0.5us", paper, cheap),
			claim("switch costs approaching the task granularity erode EDTLP's benefit",
				expensive > paper*1.1,
				"EDTLP %.1fs at 50us vs %.1fs at 1.5us", expensive, paper),
			claim("tuning the kernel quantum cannot rescue the Linux baseline (the fix must be switching on off-load events, not a shorter quantum)",
				quantumSensitivity < 0.15,
				"Linux %.1fs at 0.1ms quantum vs %.1fs at 10ms (%.0f%% apart)", qFast, qPaper, 100*quantumSensitivity),
		},
		Notes: []string{
			"The paper argues the OS scheduler cannot help because its quantum is three orders of magnitude larger than an off-loaded task. The quantum sweep shows the stronger form of that argument: because an MPI process spin-waits on its off-loaded task while it holds a hardware context, even a drastically shorter quantum leaves at most two SPEs busy — only an event-driven voluntary switch at the off-load point (EDTLP) exposes the other six.",
		},
	}
}

// AblationMGPSWindow (E9) sweeps the two MGPS design constants the paper
// fixes heuristically: the history window (equal to the number of SPEs) and
// the U threshold (half the SPEs).
func AblationMGPSWindow(cfg Config) Report {
	wl := cfg.effectiveWorkload()
	bootstraps := []int{2, 8}
	windows := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		windows = []int{4, 8, 16}
	}
	tab := stats.NewTable("MGPS sensitivity to the adaptation window (seconds)",
		"window", "2 bootstraps", "8 bootstraps")
	var atPaperWindow, atLargeWindow [2]float64
	series := []*stats.Series{{Name: "MGPS window, 2 bootstraps"}, {Name: "MGPS window, 8 bootstraps"}}
	for _, w := range windows {
		var row []any
		row = append(row, w)
		for i, n := range bootstraps {
			r := sched.RunMGPS(sched.Options{
				Workload:   wl,
				Bootstraps: n,
				MGPS:       policy.MGPSConfig{NumSPEs: 8, Window: w, UThreshold: 4},
			})
			series[i].Add(float64(w), r.PaperSeconds)
			row = append(row, r.PaperSeconds)
			if w == 8 {
				atPaperWindow[i] = r.PaperSeconds
			}
			if w == windows[len(windows)-1] {
				atLargeWindow[i] = r.PaperSeconds
			}
		}
		tab.AddRowf(row...)
	}

	thrTab := stats.NewTable("MGPS sensitivity to the U threshold (2 bootstraps, seconds)",
		"threshold", "MGPS")
	thrSeries := &stats.Series{Name: "MGPS threshold, 2 bootstraps"}
	for _, thr := range []int{1, 2, 4, 6, 8} {
		r := sched.RunMGPS(sched.Options{
			Workload:   wl,
			Bootstraps: 2,
			MGPS:       policy.MGPSConfig{NumSPEs: 8, Window: 8, UThreshold: thr},
		})
		thrSeries.Add(float64(thr), r.PaperSeconds)
		thrTab.AddRowf(thr, r.PaperSeconds)
	}
	thrLow, _ := thrSeries.Y(1)
	thrPaper, _ := thrSeries.Y(4)

	return Report{
		ID:     "E9",
		Title:  "Ablation — MGPS window and threshold",
		Tables: []*stats.Table{tab, thrTab},
		Series: append(series, thrSeries),
		Claims: []Claim{
			claim("the paper's window (8 off-loads) performs within 10% of the best window tried",
				atPaperWindow[0] <= bestOf(series[0])*1.10 && atPaperWindow[1] <= bestOf(series[1])*1.10,
				"2 bootstraps: %.1fs (best %.1fs); 8 bootstraps: %.1fs (best %.1fs)",
				atPaperWindow[0], bestOf(series[0]), atPaperWindow[1], bestOf(series[1])),
			claim("a threshold of 1 effectively disables LLP and loses the low-parallelism benefit",
				thrLow > thrPaper*1.15,
				"threshold 1: %.1fs vs threshold 4: %.1fs for 2 bootstraps", thrLow, thrPaper),
		},
	}
}

func bestOf(s *stats.Series) float64 {
	best := 0.0
	for _, p := range s.Points {
		if best == 0 || p.Y < best {
			best = p.Y
		}
	}
	return best
}

// AblationScaleInvariance (E10) verifies the harness's methodological point:
// scaling the number of off-loads per bootstrap (the knob that keeps
// simulations fast) does not change the headline ratios.
func AblationScaleInvariance(cfg Config) Report {
	base := cfg.effectiveWorkload()
	scales := []int{60, 120, 300}
	if !cfg.Quick {
		scales = []int{120, 300, 600}
	}
	tab := stats.NewTable("Scale invariance of the EDTLP/Linux ratio (8 workers)",
		"off-loads per bootstrap", "EDTLP (s)", "Linux (s)", "Linux/EDTLP")
	ratios := &stats.Series{Name: "Linux/EDTLP vs scale"}
	for _, calls := range scales {
		wl := base.Clone()
		wl.CallsPerBootstrap = calls
		e := sched.RunEDTLP(sched.Options{Workload: wl, Bootstraps: 8})
		l := sched.RunLinux(sched.Options{Workload: wl, Bootstraps: 8})
		ratio := l.PaperSeconds / e.PaperSeconds
		ratios.Add(float64(calls), ratio)
		tab.AddRowf(calls, e.PaperSeconds, l.PaperSeconds, ratio)
	}
	ys := ratios.Ys()
	spread := stats.Summarize(ys)
	pass := spread.Max-spread.Min < 0.35*spread.Mean
	return Report{
		ID:     "E10",
		Title:  "Ablation — workload scale invariance",
		Tables: []*stats.Table{tab},
		Series: []*stats.Series{ratios},
		Claims: []Claim{
			claim("the Linux/EDTLP ratio is insensitive to the off-load-count scaling",
				pass, "ratios span [%.2f, %.2f]", spread.Min, spread.Max),
		},
	}
}
