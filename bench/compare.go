package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// exactMetrics are the per-layer metrics that are counts of a deterministic
// computation: two runs of one commit must agree on them to the last digit.
// Every other per-layer metric is a timing, or a count that depends on
// timing (which loops MGPS happened to work-share, how many jobs fitted).
var exactMetrics = map[string]bool{
	"phylo.sweeps": true, "phylo.newview_calls": true, "phylo.evaluate_calls": true,
	"phylo.makenewz_calls": true, "phylo.repeats_copied": true, "phylo.nni_evaluated": true,
	"phylo.nni_accepted": true, "phylo.nni_accept_ratio": true, "phylo.spec_scored": true,
	"phylo.spec_wasted": true, "sched.offloads_serial": true, "sched.offloads_workshared": true,
	"sched.context_switches": true, "sched.module_loads": true, "policy.mgps_switches": true,
	"policy.mgps_evaluations": true, "sched.paper_s.mgps_max": true,
}

// setMedians groups a run set by workload and takes, per metric, the median
// over the set's runs of that workload; failed is the total failed operations.
func setMedians(set []report, trace bool) (medians map[string]map[string]float64, failed map[string]int) {
	values := map[string]map[string][]float64{}
	failed = map[string]int{}
	for _, r := range set {
		if r.Trace != trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		failed[r.Workload] += r.Failed
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	medians = map[string]map[string]float64{}
	for w, ms := range values {
		medians[w] = map[string]float64{}
		for name, xs := range ms {
			medians[w][name] = median(xs)
		}
	}
	return medians, failed
}

// compareSets prints, per workload and end-to-end metric, both medians, the
// relative change and the bound, then the exact-count layer metrics that
// differ. It reports false when any metric got worse by more than its bound
// or more operations failed.
func compareSets(out io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	setA, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	setB, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	a, failedA := setMedians(setA, false)
	b, failedB := setMedians(setB, false)
	ok := true

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tverdict")
	for _, w := range workloadOrder {
		if a[w] == nil || b[w] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			change := ratio(vb-va, va)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, va, m.Unit, vb, m.Unit, 100*change, 100*m.Bound, verdict)
		}
		if failedB[w] > failedA[w] {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\t\tWORSE\n", w, failedA[w], failedB[w])
			ok = false
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	la, _ := setMedians(setA, true)
	lb, _ := setMedians(setB, true)
	var diffs []string
	for _, w := range workloadOrder {
		for name := range exactMetrics {
			va, inA := la[w][name]
			vb, inB := lb[w][name]
			if inA && inB && va != vb {
				diffs = append(diffs, fmt.Sprintf("%s  %s  %v -> %v", w, name, va, vb))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		fmt.Fprintln(out, "\nexact-count layer metrics that differ:")
		for _, d := range diffs {
			fmt.Fprintln(out, " ", d)
		}
	}
	return ok, nil
}
