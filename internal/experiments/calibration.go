package experiments

import (
	"time"

	"cellmg/internal/sched"
	"cellmg/internal/sim"
	"cellmg/internal/stats"
	"cellmg/internal/workload"
)

// NativeCalibration is experiment E11: it times the repository's real Go
// likelihood kernels (phylo's newview, evaluate and makenewz — the same code
// the native runtime off-loads), derives a workload configuration from the
// measurements via workload.CalibrateNative, and re-runs the scheduler
// comparison on that calibrated workload. It closes the loop between the two
// halves of the reproduction: the simulator's cost model and the kernels that
// actually execute.
//
// The claims are deliberately shape-based rather than absolute (the measured
// times depend on the machine running the suite): kernel ordering, workload
// validity, and the parallel-throughput gain of scheduling many bootstraps,
// evaluated with the host's absolute speed taken out.
func NativeCalibration(cfg Config) Report {
	o := workload.CalibrateOptions{}
	if cfg.Quick {
		// A smaller input keeps the quick suite fast; the kernels scale
		// linearly in patterns, so the shape conclusions are unchanged.
		o = workload.CalibrateOptions{Taxa: 16, Length: 400}
	}
	rep := Report{ID: "E11", Title: "Native kernel calibration — measured Go kernels drive the scheduler model"}

	cal, err := workload.CalibrateNative(o)
	if err != nil {
		rep.Claims = []Claim{claim("the real likelihood kernels can be timed", false, "%v", err)}
		return rep
	}

	tab := stats.NewTable("E11 — measured kernel costs (this machine)",
		"kernel", "mean call (us)", "calls timed", "loop trip count")
	for _, t := range cal.Timings {
		tab.AddRowf(t.Class.String(), float64(t.MeanCall)/float64(time.Microsecond), t.Calls, cal.Patterns)
	}
	rep.Tables = append(rep.Tables, tab)

	wl := cal.Config()
	if cfg.Quick && wl.CallsPerBootstrap > 150 {
		wl.CallsPerBootstrap = 150
	}
	validErr := wl.Validate()

	// Scheduler comparison on the calibrated workload: the same Figure 8
	// sweep shape, at a single low and a single high bootstrap count.
	sweep := stats.NewTable("E11 — schedulers on the calibrated workload (paper-equivalent seconds)",
		"bootstraps", "EDTLP", "EDTLP-LLP(4)", "MGPS")
	type point struct{ edtlp, hybrid, mgps sched.Result }
	results := map[int]point{}
	for _, n := range []int{1, 16} {
		p := point{
			edtlp:  runScheduler("EDTLP", wl, n, 1),
			hybrid: runScheduler("EDTLP-LLP(4)", wl, n, 1),
			mgps:   runScheduler("MGPS", wl, n, 1),
		}
		results[n] = p
		sweep.AddRowf(n, p.edtlp.PaperSeconds, p.hybrid.PaperSeconds, p.mgps.PaperSeconds)
	}
	rep.Tables = append(rep.Tables, sweep)

	nvCall := cal.Timings[workload.Newview].MeanCall
	evCall := cal.Timings[workload.Evaluate].MeanCall
	mzCall := cal.Timings[workload.Makenewz].MeanCall

	// Throughput gain of running 16 concurrent bootstraps vs one at a time
	// under EDTLP on 8 workers. What the model supports is a direction, not
	// a constant: every off-load costs the PPE a fixed ~1.5 us context switch
	// plus signalling, whatever the kernel behind it costs, so the gain rises
	// with the off-load length — about 2.4x at a 24 us mean off-load, 4.1x at
	// 47 us, 6.5x at the ~95 us of 42_SC — and every kernel speed-up moves
	// this host down that curve. A bar at the measured speed tests the host,
	// not the model, so the claims use the measured kernel ratios and trip
	// counts rescaled to three fixed mean off-loads up to 42_SC's own. 1.5x
	// there separates "tasks overlap" from a model that serializes them.
	edtlpGain := func(w *workload.Config) float64 {
		return 16 * runScheduler("EDTLP", w, 1, 1).PaperSeconds / runScheduler("EDTLP", w, 16, 1).PaperSeconds
	}
	paperMean := workload.RAxML42SC().MeanSPETime()
	var gains [3]float64 // at 1/4, 1/2 and 1x the 42_SC mean off-load
	rising := true
	for i := range gains {
		gains[i] = edtlpGain(rescaled(wl, paperMean>>(2-i)))
		rising = rising && (i == 0 || gains[i] >= gains[i-1])
	}

	rep.Claims = []Claim{
		claim("all three kernels measure a positive steady-state cost",
			nvCall > 0 && evCall > 0 && mzCall > 0,
			"newview=%v evaluate=%v makenewz=%v", nvCall, evCall, mzCall),
		// Only the widest-margin ordering is asserted: makenewz runs a full
		// Newton loop (many per-pattern sweeps) per call, so it exceeds the
		// single-reduction evaluate kernel by an order of magnitude on any
		// machine. The finer evaluate-vs-newview ordering is reported but not
		// claimed — its margin is small enough for scheduler noise on a
		// loaded CI runner to flip it.
		claim("makenewz (a full Newton loop per call) costs far more than the evaluate reduction",
			mzCall > evCall,
			"evaluate=%v newview=%v makenewz=%v", evCall, nvCall, mzCall),
		claim("the calibrated workload is internally consistent",
			validErr == nil, "Validate: %v", validErr),
		claim("EDTLP's modeled gain from 16 concurrent bootstraps does not fall as the off-load grows",
			rising, "throughput gain %.2fx, %.2fx, %.2fx at 1/4, 1/2 and 1x the %v mean off-load of 42_SC",
			gains[0], gains[1], gains[2], paperMean),
		claim("EDTLP turns 16 concurrent bootstraps into >=1.5x throughput on 8 SPEs at the 42_SC off-load length",
			gains[2] >= 1.5, "throughput gain %.2fx at a %v mean off-load; %.2fx at this host's measured %v",
			gains[2], paperMean, 16*results[1].edtlp.PaperSeconds/results[16].edtlp.PaperSeconds, wl.MeanSPETime()),
	}
	rep.Notes = []string{
		"Per-function durations and loop trip counts come from timing this repository's Go kernels; the PPE/SPE and naive/optimized ratios, DMA payloads and call mix are inherited from the paper's 42_SC parameterization.",
		"Absolute seconds in this table are machine-dependent by design; the paper-shape claims (hybrid vs EDTLP crossover etc.) are checked on the fixed 42_SC model in E2-E7.",
	}
	return rep
}

// rescaled returns the workload with every duration multiplied so that its
// mean off-load lasts mean: ratios, call mix and trip counts stay.
func rescaled(wl *workload.Config, mean sim.Duration) *workload.Config {
	k := float64(mean) / float64(wl.MeanSPETime())
	out := wl.Clone()
	for _, f := range out.Functions {
		f.SPETime = sim.Duration(float64(f.SPETime) * k)
		f.NaiveSPETime = sim.Duration(float64(f.NaiveSPETime) * k)
		f.PPETime = sim.Duration(float64(f.PPETime) * k)
	}
	out.MeanPPEGap = sim.Duration(float64(out.MeanPPEGap) * k)
	return out
}
