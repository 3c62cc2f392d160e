package experiments

import (
	"cellmg/internal/offload"
	"cellmg/internal/sched"
	"cellmg/internal/stats"
	"cellmg/internal/workload"
)

// Paper-reported values used as references in the reproduction reports.
var (
	// Section 5.1 single-bootstrap times.
	paperPPEOnly         = 38.23
	paperNaiveOffload    = 50.38
	paperOptimizedOneSPE = 28.82

	// Table 1: execution time for N workers / N bootstraps.
	paperTable1EDTLP = map[int]float64{1: 28.46, 2: 29.36, 3: 32.54, 4: 33.12, 5: 37.27, 6: 38.66, 7: 41.87, 8: 43.32}
	paperTable1Linux = map[int]float64{1: 28.42, 2: 29.23, 3: 56.95, 4: 57.38, 5: 85.88, 6: 86.43, 7: 114.92, 8: 115.51}

	// Table 2: one bootstrap with its loops split over N SPEs.
	paperTable2 = map[int]float64{1: 28.71, 2: 20.83, 3: 19.37, 4: 18.28, 5: 18.10, 6: 20.52, 7: 18.27, 8: 24.4}
)

// SPEOptimization reproduces the Section 5.1 off-loading story (experiment
// E1): running one bootstrap entirely on the PPE, with naive off-loading, and
// with optimized off-loading.
func SPEOptimization(cfg Config) Report {
	wl := cfg.effectiveWorkload()
	ppeOnly := sched.RunPPEOnly(sched.Options{Workload: wl, Bootstraps: 1})
	// The naive port has no user-level scheduler and no granularity control:
	// it blindly off-loads under the stock kernel scheduler.
	naive := sched.RunLinux(sched.Options{Workload: wl, Bootstraps: 1, Level: offload.Naive})
	optimized := sched.RunEDTLP(sched.Options{Workload: wl, Bootstraps: 1})

	tab := stats.NewTable("Section 5.1 — one bootstrap, one SPE (seconds)",
		"configuration", "paper", "reproduced")
	tab.AddRowf("PPE only (no off-loading)", paperPPEOnly, ppeOnly.PaperSeconds)
	tab.AddRowf("naive off-loading", paperNaiveOffload, naive.PaperSeconds)
	tab.AddRowf("optimized off-loading", paperOptimizedOneSPE, optimized.PaperSeconds)

	speedup := ppeOnly.PaperSeconds / optimized.PaperSeconds
	return Report{
		ID:     "E1",
		Title:  "SPE off-load optimization (Section 5.1)",
		Tables: []*stats.Table{tab},
		Claims: []Claim{
			claim("naive off-loading is slower than not off-loading at all",
				naive.PaperSeconds > ppeOnly.PaperSeconds,
				"naive %.1fs vs PPE-only %.1fs", naive.PaperSeconds, ppeOnly.PaperSeconds),
			claim("optimized off-loading beats PPE-only execution by ~1.3x",
				speedup > 1.2 && speedup < 1.5,
				"speedup %.2f (paper: 1.33)", speedup),
			claim("single-bootstrap absolute time is in the paper's range",
				optimized.PaperSeconds > 24 && optimized.PaperSeconds < 34,
				"%.1fs (paper: 28.82s)", optimized.PaperSeconds),
		},
	}
}

// Table1 reproduces Table 1: EDTLP versus the Linux kernel scheduler for 1-8
// workers, each performing one bootstrap.
func Table1(cfg Config) Report {
	wl := cfg.effectiveWorkload()
	workers := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		workers = []int{1, 2, 4, 8}
	}
	tab := stats.NewTable("Table 1 — N workers, N bootstraps (seconds)",
		"workers", "EDTLP (paper)", "EDTLP (ours)", "Linux (paper)", "Linux (ours)")
	edtlpSeries := &stats.Series{Name: "EDTLP"}
	linuxSeries := &stats.Series{Name: "Linux"}
	for _, n := range workers {
		e := sched.RunEDTLP(sched.Options{Workload: wl, Bootstraps: n})
		l := sched.RunLinux(sched.Options{Workload: wl, Bootstraps: n})
		edtlpSeries.Add(float64(n), e.PaperSeconds)
		linuxSeries.Add(float64(n), l.PaperSeconds)
		tab.AddRowf(n, paperTable1EDTLP[n], e.PaperSeconds, paperTable1Linux[n], l.PaperSeconds)
	}
	e1, _ := edtlpSeries.Y(1)
	e8, _ := edtlpSeries.Y(8)
	l8, _ := linuxSeries.Y(8)
	advantage := l8 / e8
	growth := e8 / e1
	l2, ok2 := linuxSeries.Y(2)
	l3, ok3 := linuxSeries.Y(3)
	l4, ok4 := linuxSeries.Y(4)
	stepClaim := Claim{Description: "Linux time steps up in pairs of workers", Pass: true, Detail: "only checked in the full sweep"}
	if ok2 && ok3 && ok4 {
		stepClaim = claim("Linux time steps up in pairs of workers",
			l3 > 1.6*l2 && l4/l3 < 1.15,
			"2 workers %.1fs, 3 workers %.1fs, 4 workers %.1fs", l2, l3, l4)
	}
	return Report{
		ID:     "E2",
		Title:  "Table 1 — EDTLP vs Linux scheduler",
		Tables: []*stats.Table{tab},
		Series: []*stats.Series{edtlpSeries, linuxSeries},
		Claims: []Claim{
			claim("EDTLP outperforms the Linux scheduler by roughly 2.6x at 8 workers",
				advantage > 2.2 && advantage < 3.4,
				"advantage %.2fx (paper: 2.67x)", advantage),
			claim("EDTLP keeps 8 bootstraps within ~1.5x of one bootstrap",
				growth > 1.1 && growth < 1.8,
				"growth %.2fx (paper: 1.52x)", growth),
			claim("Linux needs ~ceil(N/2) waves",
				l8/e1 > 3.3 && l8/e1 < 4.7,
				"8-worker Linux / 1-worker EDTLP = %.2fx (paper: 4.06x)", l8/e1),
			stepClaim,
		},
	}
}

// Table2 reproduces Table 2: one bootstrap with loop-level parallelism across
// 1-8 SPEs.
func Table2(cfg Config) Report {
	wl := cfg.effectiveWorkload()
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		widths = []int{1, 2, 4, 8}
	}
	tab := stats.NewTable("Table 2 — one bootstrap, loops across N SPEs (seconds)",
		"SPEs per loop", "paper", "reproduced", "speedup (ours)")
	series := &stats.Series{Name: "LLP"}
	var base float64
	for _, w := range widths {
		var r sched.Result
		if w == 1 {
			r = sched.RunEDTLP(sched.Options{Workload: wl, Bootstraps: 1})
		} else {
			r = sched.RunStaticHybrid(sched.Options{Workload: wl, Bootstraps: 1, SPEsPerLoop: w})
		}
		if w == 1 {
			base = r.PaperSeconds
		}
		series.Add(float64(w), r.PaperSeconds)
		tab.AddRowf(w, paperTable2[w], r.PaperSeconds, base/r.PaperSeconds)
	}
	// Find the best width and speedup.
	bestW, bestT := 1, base
	for _, p := range series.Points {
		if p.Y < bestT {
			bestT = p.Y
			bestW = int(p.X)
		}
	}
	maxSpeedup := base / bestT
	y4, ok4 := series.Y(4)
	if !ok4 {
		y4 = bestT
	}
	y8, _ := series.Y(8)
	gainBeyond4 := y4/y8 - 1 // relative improvement from 4 to 8 SPEs
	return Report{
		ID:     "E3",
		Title:  "Table 2 — loop-level parallelism scaling",
		Tables: []*stats.Table{tab},
		Series: []*stats.Series{series},
		Claims: []Claim{
			claim("LLP yields a modest speedup, far from linear (paper max 1.58x)",
				maxSpeedup > 1.3 && maxSpeedup < 2.0,
				"max speedup %.2fx at %d SPEs", maxSpeedup, bestW),
			claim("returns diminish beyond ~4 SPEs per loop (paper: best at 4-5, worse at 8)",
				gainBeyond4 < 0.10,
				"going from 4 to 8 SPEs changes the time by only %.1f%%", 100*gainBeyond4),
			claim("2 SPEs already capture most of the achievable LLP benefit",
				func() bool { y2, ok := series.Y(2); return ok && base/y2 > 0.65*maxSpeedup }(),
				"speedup at 2 SPEs vs best: %.2fx vs %.2fx",
				func() float64 { y2, _ := series.Y(2); return base / y2 }(), maxSpeedup),
		},
		Notes: []string{
			"Speedup is bounded by the <90% loop coverage of the off-loaded code, the 228-iteration trip count, per-worker Pass/DMA overheads and the reduction at the master (Section 5.3).",
			"Deviation from the paper: the measured Table 2 degrades outright at 6 and 8 SPEs (20.5 s / 24.4 s); our model plateaus instead of degrading, because it does not capture the hardware-level effects (reduction hot-spotting, DMA alignment, run-to-run noise) behind that non-monotonicity. The scheduling-relevant conclusion — LLP is only worth a handful of SPEs — is unchanged.",
		},
	}
}

// runScheduler runs the scheduler a figure's series is named after.
func runScheduler(name string, wl *workload.Config, n, cells int) sched.Result {
	res, err := sched.Run(name, sched.Options{Workload: wl, Bootstraps: n, NumCells: cells})
	if err != nil {
		panic(err)
	}
	return res
}
