package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/server"
	"cellmg/internal/stats"
)

// analysisParams sizes one analysis workload. The alignment is simulated from
// dataSeed, a constant of the workload, and the run's seed only permutes its
// columns: the driver compares runs made with different seeds, so the seed
// must vary the input without varying the amount of work. (Simulating from
// the run's seed moved the unit time by +-18% between seeds, because the
// search converges after a data-dependent number of sweeps.) Pattern
// compression sorts columns, so every seed yields the same patterns and the
// same result, which is why one reference logL serves all seeds.
type analysisParams struct {
	taxa, sites            int
	gammaShape             float64 // 0: single rate; else four discrete-Gamma categories
	inferences, bootstraps int
	dataSeed, analysisSeed int64
	refLogL                float64
}

// The full sizes are the largest that keep one unit near a second on a
// 2-thread host: a run repeats set-up (with its warm-up unit) three times
// and the driver makes 92 runs inside 57 minutes. batch_bootstraps keeps the
// paper's headline shape (16 tasks >= 4x the workers, task-level parallelism
// only); single_search keeps the under-subscribed one (one Gamma4 search,
// ~300 patterns, W-1 workers with nothing to do unless loop-level parallelism
// pays).
var analysisSizes = map[string]map[string]analysisParams{
	"batch_bootstraps": {
		"full": {taxa: 10, sites: 300, inferences: 2, bootstraps: 14, dataSeed: 1, analysisSeed: 1, refLogL: -2002.8830713494},
		"tiny": {taxa: 6, sites: 80, inferences: 1, bootstraps: 3, dataSeed: 1, analysisSeed: 1, refLogL: -335.4361947180},
	},
	"single_search": {
		"full": {taxa: 14, sites: 500, gammaShape: 0.8, inferences: 1, dataSeed: 2, analysisSeed: 2, refLogL: -4133.7726329368},
		"tiny": {taxa: 7, sites: 120, gammaShape: 0.8, inferences: 1, dataSeed: 2, analysisSeed: 2, refLogL: -602.2796899320},
	},
}

// analysisWorkload is batch_bootstraps and single_search: native.RunAnalysis
// on a fresh MGPS runtime, timed from runtime construction to the result.
type analysisWorkload struct {
	name    string
	p       analysisParams
	workers int
	aln     *phylo.Alignment
	data    *phylo.PatternAlignment
	rates   phylo.RateCategories
	opts    native.AnalysisOptions
	ref     []byte // the warm-up unit's encoded result; every timed unit must equal it
}

func (w *analysisWorkload) close() {}

func (w *analysisWorkload) setup(cfg config) error {
	w.p = analysisSizes[w.name][cfg.scale]
	w.workers = cfg.workers
	w.rates = phylo.SingleRate()
	if w.p.gammaShape > 0 {
		var err error
		if w.rates, err = phylo.DiscreteGamma(w.p.gammaShape, 4); err != nil {
			return err
		}
	}
	aln, err := simulateAlignment(w.p.taxa, w.p.sites, w.p.dataSeed, w.rates, cfg.seed)
	if err != nil {
		return err
	}
	w.aln = aln
	if w.data, err = phylo.Compress(aln); err != nil {
		return err
	}
	w.opts = native.AnalysisOptions{
		Inferences: w.p.inferences,
		Bootstraps: w.p.bootstraps,
		Search:     phylo.DefaultSearchOptions(),
		Seed:       w.p.analysisSeed,
		Model:      phylo.NewJC69(),
		Rates:      w.rates,
	}

	// The warm-up unit doubles as the reference: it is checked on its own
	// merits here, and every timed unit must reproduce it byte for byte.
	var mu sync.Mutex
	var startLogLs []float64
	opts := w.opts
	opts.Search.Progress = func(p phylo.SearchProgress) {
		if p.Round == 0 {
			mu.Lock()
			startLogLs = append(startLogLs, p.LogLikelihood)
			mu.Unlock()
		}
	}
	rt := native.New(native.Options{Policy: native.MGPS, Workers: w.workers})
	res, err := native.RunAnalysis(rt, w.data, opts)
	rt.Close()
	if err != nil {
		return fmt.Errorf("warm-up unit: %w", err)
	}
	if w.ref, err = json.Marshal(server.ResultFromAnalysis(res)); err != nil {
		return err
	}
	if math.IsNaN(res.BestLogLik) || math.IsInf(res.BestLogLik, 0) {
		return fmt.Errorf("warm-up logL %v is not finite", res.BestLogLik)
	}
	// With a single search in the unit its start logL is unambiguous.
	if len(startLogLs) == 1 && res.BestLogLik < startLogLs[0] {
		return fmt.Errorf("warm-up logL %v is below the search's start logL %v", res.BestLogLik, startLogLs[0])
	}
	back, err := phylo.ParseNewick(res.BestTree.Newick())
	if err != nil {
		return fmt.Errorf("best tree does not parse back: %w", err)
	}
	if back.NumTaxa() != w.p.taxa {
		return fmt.Errorf("best tree has %d taxa, want %d", back.NumTaxa(), w.p.taxa)
	}
	if stats.RelErr(res.BestLogLik, w.p.refLogL) > 1e-6 {
		return fmt.Errorf("best logL %.10f does not match the stored reference %.10f", res.BestLogLik, w.p.refLogL)
	}
	return nil
}

// simulateAlignment evolves sequences from the workload's own seed and then
// permutes the columns with the run's seed.
func simulateAlignment(taxa, sites int, dataSeed int64, rates phylo.RateCategories, runSeed int64) (*phylo.Alignment, error) {
	so := phylo.DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed, so.Rates = taxa, sites, dataSeed, rates
	_, aln, err := phylo.Simulate(so)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(runSeed)).Perm(sites)
	for i, seq := range aln.Seqs {
		out := make([]byte, len(seq))
		for j, src := range perm {
			out[j] = seq[src]
		}
		aln.Seqs[i] = out
	}
	return aln, nil
}

// unitObs is what one unit leaves behind besides its result.
type unitObs struct {
	wallMS       float64
	stats        native.Stats
	offloads     stats.OffloadSummary
	flightEvents int
}

// spanSink turns each completed off-load into a queue span and a run span,
// placed backwards from the moment the runtime reports it.
type spanSink struct {
	tr     *tracer
	parent int
}

func (s spanSink) RecordOffload(ev stats.OffloadEvent) {
	end := time.Now()
	run := end.Add(-ev.Run)
	s.tr.add("native.offload.run", s.parent, 1+ev.Submitter, "", run, end)
	s.tr.add("native.offload.queue", s.parent, 1+ev.Submitter, "", run.Add(-ev.QueueWait), run)
}

// runUnit is one operation: build a runtime, run the analysis, check the
// result against the warm-up unit. tr wraps the calls in spans (nil: tracing
// off) and withFlight turns the runtime's own flight recorder on.
func (w *analysisWorkload) runUnit(tr *tracer, parent int, withFlight bool, out *outcome) (unitObs, error) {
	var obs unitObs
	opts := w.opts
	nopts := native.Options{Policy: native.MGPS, Workers: w.workers}
	if withFlight {
		nopts.Flight = flight.New(flight.Config{Workers: w.workers})
	}
	unit := tr.begin("bench.unit", parent)
	defer tr.end(unit)
	var collector stats.OffloadCollector
	if tr != nil {
		opts.Sink = stats.TeeSink{&collector, spanSink{tr, unit}}
	}

	t0 := time.Now()
	s := tr.begin("native.New", unit)
	rt := native.New(nopts)
	tr.end(s)
	s = tr.begin("native.RunAnalysis", unit)
	res, err := native.RunAnalysis(rt, w.data, opts)
	tr.end(s)
	obs.wallMS = float64(time.Since(t0)) / 1e6
	obs.stats = rt.Stats()
	obs.offloads = collector.Summary()
	s = tr.begin("native.Runtime.Close", unit)
	rt.Close()
	tr.end(s)
	if rec := nopts.Flight; rec != nil {
		snap := rec.Snapshot()
		obs.flightEvents = len(snap.Events) + int(snap.Dropped)
	}

	s = tr.begin("bench.check", unit)
	defer tr.end(s)
	out.attempted++
	if err != nil {
		out.fail("%s unit: %v", w.name, err)
		return obs, nil
	}
	enc, err := json.Marshal(server.ResultFromAnalysis(res))
	if err != nil {
		return obs, err
	}
	if string(enc) != string(w.ref) {
		out.fail("%s unit result differs from the warm-up unit's", w.name)
	}
	return obs, nil
}

// reportOps reports the three numbers every workload gives about its
// operations: the median and 90th percentile of their times and their rate.
// An end-to-end run reports them bare, a traced run (about its untraced
// operations) under "bench.".
func reportOps(out *outcome, prefix string, ms []float64, perSecond float64) {
	out.setSamples(prefix+"op_p50_ms", ms, 0.5)
	out.setSamples(prefix+"op_p90_ms", ms, 0.9)
	out.set(prefix+"ops_per_s", perSecond)
}

// measureUnits repeats unit, which returns its time in milliseconds, until
// seconds have passed (and at least three times) and reports the operations.
// Each unit's time is scaled by the host's speed around it (probe.go): the
// probe runs before and after every unit, and the unit counts as if the host
// had run at the reference speed throughout.
func measureUnits(seconds float64, out *outcome, unit func() (float64, error)) error {
	var raw, scaled, probes []float64
	t0 := time.Now()
	before := hostProbe(probeReps)
	for len(raw) < 3 || time.Since(t0).Seconds() < seconds {
		ms, err := unit()
		if err != nil {
			return err
		}
		after := hostProbe(probeReps)
		raw = append(raw, ms)
		scaled = append(scaled, ms*probeRefMS/((before+after)/2))
		probes = append(probes, after)
		before = after
	}
	reportOps(out, "", scaled, float64(len(raw))/time.Since(t0).Seconds())
	out.set("raw_op_p50_ms", median(raw))
	out.set("host_probe_ms", median(probes))
	return nil
}

func (w *analysisWorkload) measure(cfg config, out *outcome) error {
	return measureUnits(cfg.seconds, out, func() (float64, error) {
		obs, err := w.runUnit(nil, 0, false, out)
		return obs.wallMS, err
	})
}

// layers is the traced run. Units rotate through three variants — plain,
// wrapped in spans, and with the runtime's flight recorder on — so the two
// overhead ratios compare units that ran interleaved on the same host state.
// The rest of the time goes to driving the phylo stages serially and to
// timing the kernels and the runtime's two primitives on this workload's own
// alignment.
func (w *analysisWorkload) layers(cfg config, tr *tracer, out *outcome) error {
	root := tr.begin("bench.run", 0)
	defer tr.end(root)

	const plain, traced, flown = 0, 1, 2
	var walls [3][]float64
	var last unitObs
	var flightEvents int
	t0 := time.Now()
	for i := 0; i < 3 || time.Since(t0).Seconds() < 0.6*cfg.seconds; i++ {
		variant := i % 3
		var unitTracer *tracer
		if variant == traced {
			unitTracer = tr
		}
		obs, err := w.runUnit(unitTracer, root, variant == flown, out)
		if err != nil {
			return err
		}
		walls[variant] = append(walls[variant], obs.wallMS)
		switch variant {
		case traced:
			last = obs
		case flown:
			flightEvents = obs.flightEvents
		}
	}
	reportOps(out, "bench.", walls[plain], ratio(1e3, mean(walls[plain])))
	out.set("bench.trace_overhead_ratio", ratio(median(walls[traced]), median(walls[plain])))
	out.set("flight.overhead_ratio", ratio(median(walls[flown]), median(walls[plain])))
	out.set("flight.events", float64(flightEvents))
	nativeLayer(out, last.stats, last.offloads, w.workers, last.wallMS)

	if err := w.driveStages(tr, root, out); err != nil {
		return err
	}
	probe := time.Duration(cfg.seconds / 40 * float64(time.Second))
	if err := w.kernelProbes(tr, root, probe, out); err != nil {
		return err
	}
	return nativePrimitives(tr, root, w.workers, probe, out)
}

// nativeLayer reports the runtime counters of one unit (or one server's
// lifetime): what ran, how loops were dispatched, and how busy the pool was.
func nativeLayer(out *outcome, st native.Stats, off stats.OffloadSummary, workers int, wallMS float64) {
	loops := float64(st.LoopsSerial + st.LoopsWorkShared + st.LoopsHeavy)
	var busy time.Duration
	for _, b := range st.WorkerBusy {
		busy += b
	}
	out.set("native.tasks_run", float64(st.TasksRun))
	out.set("native.loops_serial", float64(st.LoopsSerial))
	out.set("native.loops_workshared", float64(st.LoopsWorkShared))
	out.set("native.loops_heavy", float64(st.LoopsHeavy))
	out.set("native.workshared_share", ratio(float64(st.LoopsWorkShared+st.LoopsHeavy), loops))
	out.set("native.policy_switches", float64(st.Switches))
	out.set("native.policy_evaluations", float64(st.Evaluations))
	out.set("native.worker_busy_share", ratio(float64(busy)/1e6, float64(workers)*wallMS))
	out.set("native.offload_queue_wait_ms", float64(off.QueueWaitMean())/1e6)
	out.set("native.offload_run_ms", float64(off.RunMean())/1e6)
	out.set("native.workers_granted_mean", ratio(float64(off.WorkersGranted), float64(off.Offloads)))
}

// driveStages runs one inference task, and one bootstrap task when the
// workload has bootstraps, serially through phylo's public API — the steps
// native.RunAnalysis performs per task — with a span around each stage. The
// counts it reports are exact: the searches are deterministic.
func (w *analysisWorkload) driveStages(tr *tracer, parent int, out *outcome) error {
	stage := tr.begin("phylo.stages", parent)
	defer tr.end(stage)

	s := tr.begin("phylo.Compress", stage)
	data, err := phylo.Compress(w.aln)
	tr.end(s)
	if err != nil {
		return err
	}

	var kernels phylo.KernelStats
	var total phylo.SearchResult
	var sweeps int
	var mallocs uint64
	search := func(taskData *phylo.PatternAlignment, seed int64) (*phylo.SearchResult, error) {
		s := tr.begin("phylo.NewEngine", stage)
		eng, err := phylo.NewEngine(taskData, w.opts.Model, w.rates)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		so := w.opts.Search
		so.Seed = seed
		run := tr.begin("phylo.Search", stage)
		// Progress fires once after the initial branch optimization and
		// once after every sweep: the gaps between calls are the stages.
		cur := tr.begin("phylo.init_optimize", run)
		so.Progress = func(p phylo.SearchProgress) {
			tr.end(cur)
			if p.Round > 0 {
				sweeps++
			}
			cur = tr.begin("phylo.sweep", run)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr, err := eng.SearchContext(context.Background(), so)
		runtime.ReadMemStats(&after)
		// The span opened by the last Progress call covers the final
		// smoothing, not a sweep.
		tr.rename(cur, "phylo.final_smoothing")
		tr.end(cur)
		tr.end(run)
		if err != nil {
			return nil, err
		}
		mallocs += after.Mallocs - before.Mallocs
		kernels.NewviewCalls += eng.Stats.NewviewCalls
		kernels.EvaluateCalls += eng.Stats.EvaluateCalls
		kernels.MakenewzCalls += eng.Stats.MakenewzCalls
		kernels.RepeatsCopied += eng.Stats.RepeatsCopied
		total.NNIEvaluated += sr.NNIEvaluated
		total.NNIAccepted += sr.NNIAccepted
		total.SpecScored += sr.SpecScored
		total.SpecWasted += sr.SpecWasted
		return sr, nil
	}

	out.attempted++
	sr, err := search(data, phylo.DeriveSeed(w.opts.Seed, phylo.SeedStreamInference, 0))
	if err != nil {
		return err
	}
	var ref server.Result
	if err := json.Unmarshal(w.ref, &ref); err != nil {
		return err
	}
	switch {
	case sr.LogLikelihood < sr.StartLogLik:
		out.fail("serial inference 0: logL %v is below its start logL %v", sr.LogLikelihood, sr.StartLogLik)
	case sr.LogLikelihood != ref.InferenceLogs[0]:
		out.fail("serial inference 0: logL %v differs from the parallel unit's %v", sr.LogLikelihood, ref.InferenceLogs[0])
	}

	if w.p.bootstraps > 0 {
		s := tr.begin("phylo.BootstrapWeights", stage)
		rng := rand.New(rand.NewSource(phylo.DeriveSeed(w.opts.Seed, phylo.SeedStreamBootstrapWeights, 0)))
		boot, err := data.WithWeights(phylo.BootstrapWeights(data, rng))
		tr.end(s)
		if err != nil {
			return err
		}
		if _, err := search(boot, phylo.DeriveSeed(w.opts.Seed, phylo.SeedStreamBootstrapSearch, 0)); err != nil {
			return err
		}
	}

	out.set("phylo.compress_ms", mean(tr.ms("phylo.Compress")))
	out.set("phylo.bootstrap_weights_ms", mean(tr.ms("phylo.BootstrapWeights")))
	out.set("phylo.engine_build_ms", mean(tr.ms("phylo.NewEngine")))
	out.set("phylo.init_optimize_ms", mean(tr.ms("phylo.init_optimize")))
	out.set("phylo.sweep_ms", mean(tr.ms("phylo.sweep")))
	out.set("phylo.sweeps", float64(sweeps))
	out.set("phylo.newview_calls", float64(kernels.NewviewCalls))
	out.set("phylo.evaluate_calls", float64(kernels.EvaluateCalls))
	out.set("phylo.makenewz_calls", float64(kernels.MakenewzCalls))
	out.set("phylo.repeats_copied", float64(kernels.RepeatsCopied))
	out.set("phylo.nni_evaluated", float64(total.NNIEvaluated))
	out.set("phylo.nni_accepted", float64(total.NNIAccepted))
	out.set("phylo.nni_accept_ratio", ratio(float64(total.NNIAccepted), float64(total.NNIEvaluated)))
	out.set("phylo.spec_scored", float64(total.SpecScored))
	out.set("phylo.spec_wasted", float64(total.SpecWasted))
	out.set("phylo.search_allocs", float64(mallocs))
	return nil
}
