package main

import (
	"fmt"
	"time"

	"cellmg/internal/sched"
	"cellmg/internal/stats"
	"cellmg/internal/workload"
)

// simSchedulers are the three schedulers of the paper's Figure 8 comparison.
var simSchedulers = []struct {
	name string
	run  func(sched.Options) sched.Result
}{
	{"edtlp", sched.RunEDTLP},
	{"hybrid4", sched.RunStaticHybrid},
	{"mgps", sched.RunMGPS},
}

// simBootstraps is the sweep's x-axis. The paper's figures go to 128
// bootstraps; that sweep takes 8.5 s here, and with set-up repeated per run
// only the points up to 16 (0.9 s) fit the driver's time cap. They cover both
// regimes: loop-level parallelism wins below 8 bootstraps, task-level from 8.
var simBootstraps = map[string][]int{
	"full": {1, 2, 4, 8, 16},
	"tiny": {1, 2},
}

// simReference is PaperSeconds per (bootstraps, scheduler) for the full
// sweep. The simulator is deterministic and the seed selects nothing here:
// any drift is a change of the model, not noise.
var simReference = map[int][3]float64{
	1:  {29.0926, 19.0042, 18.6259},
	2:  {29.6977, 19.4082, 19.5236},
	4:  {36.0597, 50.1365, 28.8081},
	8:  {38.9383, 100.0506, 38.9383},
	16: {71.3687, 200.0069, 71.3687},
}

// simWorkload is sim_sweep: the simulated-Cell half of the repository
// (sim, cellsim, offload, sched, policy); no native code runs.
type simWorkload struct {
	cfg        *workload.Config
	bootstraps []int
	ref        [][3]float64 // the warm-up sweep's PaperSeconds
}

func (w *simWorkload) close() {}

func (w *simWorkload) setup(cfg config) error {
	w.cfg = workload.RAxML42SC()
	w.bootstraps = simBootstraps[cfg.scale]
	out := newOutcome()
	res, _ := w.sweep(nil, 0, out)
	if out.failed > 0 {
		return fmt.Errorf("warm-up sweep: %s", out.problems[0])
	}
	for i, b := range w.bootstraps {
		row := [3]float64{res[i][0].PaperSeconds, res[i][1].PaperSeconds, res[i][2].PaperSeconds}
		w.ref = append(w.ref, row)
		for k, want := range simReference[b] {
			// The stored table is printed to four decimals.
			if stats.RelErr(row[k], want) > 1e-5 {
				return fmt.Errorf("%s at %d bootstraps: %.4f paper seconds, stored reference %.4f",
					simSchedulers[k].name, b, row[k], want)
			}
		}
	}
	return nil
}

// sweep is one operation: every scheduler at every point of the x-axis. It
// returns the results and the wall milliseconds each scheduler took.
func (w *simWorkload) sweep(tr *tracer, parent int, out *outcome) ([][3]sched.Result, [3]float64) {
	unit := tr.begin("bench.unit", parent)
	defer tr.end(unit)
	out.attempted++
	results := make([][3]sched.Result, len(w.bootstraps))
	var wallMS [3]float64
	var problem string // the sweep fails once, on its first failed check
	for i, b := range w.bootstraps {
		for k, s := range simSchedulers {
			span := tr.begin("sched.Run."+s.name, unit)
			t0 := time.Now()
			results[i][k] = s.run(sched.Options{Workload: w.cfg, Bootstraps: b, SPEsPerLoop: 4})
			wallMS[k] += float64(time.Since(t0)) / 1e6
			tr.end(span)
			if got := results[i][k].PaperSeconds; problem == "" && w.ref != nil && got != w.ref[i][k] {
				problem = fmt.Sprintf("%s at %d bootstraps: %v paper seconds, the warm-up sweep had %v",
					s.name, b, got, w.ref[i][k])
			}
		}
		// The adaptive scheduler must track the better static one.
		r := results[i]
		if best := min(r[0].PaperSeconds, r[1].PaperSeconds); problem == "" && r[2].PaperSeconds > 1.05*best {
			problem = fmt.Sprintf("MGPS at %d bootstraps: %.4f paper seconds exceeds 1.05 x min(EDTLP, hybrid) = %.4f",
				b, r[2].PaperSeconds, 1.05*best)
		}
	}
	if problem != "" {
		out.fail("%s", problem)
	}
	return results, wallMS
}

func (w *simWorkload) measure(cfg config, out *outcome) error {
	return measureUnits(cfg.seconds, out, func() (float64, error) {
		t0 := time.Now()
		w.sweep(nil, 0, out)
		return float64(time.Since(t0)) / 1e6, nil
	})
}

// layers alternates traced and untraced sweeps; the per-scheduler wall times
// and the counters come from the traced ones.
func (w *simWorkload) layers(cfg config, tr *tracer, out *outcome) error {
	root := tr.begin("bench.run", 0)
	defer tr.end(root)
	var plain, traced []float64
	var perSched [3][]float64
	var last [][3]sched.Result
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0).Seconds() < cfg.seconds; i++ {
		u0 := time.Now()
		if i%2 == 0 {
			w.sweep(nil, 0, out)
			plain = append(plain, float64(time.Since(u0))/1e6)
			continue
		}
		res, wallMS := w.sweep(tr, root, out)
		traced = append(traced, float64(time.Since(u0))/1e6)
		for k := range perSched {
			perSched[k] = append(perSched[k], wallMS[k])
		}
		last = res
	}
	reportOps(out, "bench.", plain, ratio(1e3, mean(plain)))
	out.set("bench.trace_overhead_ratio", ratio(median(traced), median(plain)))

	var serial, shared, ctxSwitches, loads, switches, evals int
	for _, row := range last {
		for _, r := range row {
			serial += r.SerialOffloads
			shared += r.WorkSharedOffloads
			ctxSwitches += r.ContextSwitches
			loads += r.ModuleLoads
		}
		switches += row[2].MGPSSwitches
		evals += row[2].MGPSEvaluations
	}
	for k, s := range simSchedulers {
		out.setSamples("sched.run_ms."+s.name, perSched[k], 0.5)
	}
	out.set("sched.offloads_serial", float64(serial))
	out.set("sched.offloads_workshared", float64(shared))
	out.set("sched.context_switches", float64(ctxSwitches))
	out.set("sched.module_loads", float64(loads))
	out.set("policy.mgps_switches", float64(switches))
	out.set("policy.mgps_evaluations", float64(evals))
	out.set("sched.paper_s.mgps_max", last[len(last)-1][2].PaperSeconds)
	out.set("sim.offloads_per_wall_s", ratio(float64(serial+shared), median(traced)/1e3))
	return nil
}
