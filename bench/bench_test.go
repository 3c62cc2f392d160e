package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 1, trace: trace, scale: "tiny",
		outDir:  t.TempDir(),
		workers: min(runtime.NumCPU(), 4),
		clients: runtime.NumCPU(),
	}
}

// Every workload, untraced and traced, emits every metric BENCHMARK.json
// names for that kind of run, finite and with the promised unit, and passes
// its own output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadOrder))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(tinyConfig(t, w.Name, trace), spec)
			runCleanups()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is missing", w.Name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			line := rep.resultLine()
			if len(line) != 4 {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
			}
		}
	}
}

// A layer metric every workload reads 0 for is measured by nobody.
func TestEveryLayerMetricIsMeasuredSomewhere(t *testing.T) {
	spec := testSpec(t)
	measured := map[string]bool{}
	for _, w := range workloadOrder {
		cfg := tinyConfig(t, w, true)
		cfg.seconds = 0.5
		out := newOutcome()
		r := workloads[w]()
		if err := r.setup(cfg); err != nil {
			t.Fatal(err)
		}
		if err := r.layers(cfg, newTracer(), out); err != nil {
			t.Fatal(err)
		}
		r.close()
		runCleanups()
		for name := range out.values {
			measured[name] = true
		}
	}
	for _, d := range spec.PerLayer {
		if !measured[d.Name] && !strings.HasPrefix(d.Name, "bench.") {
			t.Errorf("per-layer metric %s is set by no workload", d.Name)
		}
	}
	for name := range exactMetrics {
		if !measured[name] {
			t.Errorf("exact metric %s is set by no workload", name)
		}
	}
}

// A corrupted stored reference must fail the run, not pass silently.
func TestCorruptedReferenceFails(t *testing.T) {
	spec := testSpec(t)

	p := analysisSizes["batch_bootstraps"]["tiny"]
	defer func() { analysisSizes["batch_bootstraps"]["tiny"] = p }()
	bad := p
	bad.refLogL *= 1.001
	analysisSizes["batch_bootstraps"]["tiny"] = bad
	if _, err := runWorkload(tinyConfig(t, "batch_bootstraps", false), spec); err == nil {
		t.Error("batch_bootstraps passed with a corrupted reference logL")
	}

	ref := simReference[2]
	defer func() { simReference[2] = ref }()
	simReference[2] = [3]float64{ref[0], ref[1], ref[2] * 1.01}
	if _, err := runWorkload(tinyConfig(t, "sim_sweep", false), spec); err == nil {
		t.Error("sim_sweep passed with a corrupted reference table")
	}
	runCleanups()
}

// A unit whose result differs from the warm-up unit's is a failed operation.
func TestDivergingUnitIsCounted(t *testing.T) {
	w := &analysisWorkload{name: "batch_bootstraps"}
	if err := w.setup(tinyConfig(t, "batch_bootstraps", false)); err != nil {
		t.Fatal(err)
	}
	w.ref = append([]byte(nil), w.ref...)
	w.ref[len(w.ref)/2] ^= 1
	out := newOutcome()
	if _, err := w.runUnit(nil, 0, false, out); err != nil {
		t.Fatal(err)
	}
	if out.attempted != 1 || out.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 1 and 1", out.attempted, out.failed)
	}
}

// selfTimes returns, for every lane-0 span, its duration minus the part of it
// its lane-0 children cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Lane == 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[int]int64{}
	for _, s := range spans {
		if s.Lane != 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// In the span file every lane-0 span's self time (its duration minus what its
// children cover) is non-negative, and the self times add up to the root.
func TestSpanSelfTimes(t *testing.T) {
	spec := testSpec(t)
	for _, w := range []string{"sim_sweep", "batch_bootstraps", "serve_small"} {
		cfg := tinyConfig(t, w, true)
		if _, err := runWorkload(cfg, spec); err != nil {
			t.Fatal(err)
		}
		runCleanups()
		b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		var root *span
		byID := map[int]span{}
		for i, s := range spans {
			byID[s.ID] = s
			if s.End < s.Start {
				t.Errorf("%s: span %d %s ends before it starts", w, s.ID, s.Name)
			}
			if s.Parent == 0 && s.Lane == 0 {
				if root != nil {
					t.Fatalf("%s: two root spans", w)
				}
				root = &spans[i]
			}
		}
		if root == nil {
			t.Fatalf("%s: no root span", w)
		}
		var sum int64
		for id, self := range selfTimes(spans) {
			if self < 0 {
				t.Errorf("%s: span %d %s has self time %d ns", w, id, byID[id].Name, self)
			}
			sum += self
		}
		if sum != root.End-root.Start {
			t.Errorf("%s: self times add up to %d ns, the root span lasts %d ns", w, sum, root.End-root.Start)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := testSpec(t)
	mk := func(p50 float64, calls float64, failed int) []report {
		var set []report
		for _, v := range []float64{0.98, 1, 1.02} {
			set = append(set, report{Workload: "single_search", Failed: failed, Metrics: map[string]metricValue{
				"setup_s": {Value: 1}, "op_p50_ms": {Value: p50 * v}, "peak_rss_mb": {Value: 30},
			}})
		}
		return append(set, report{Workload: "single_search", Trace: true, Metrics: map[string]metricValue{
			"phylo.newview_calls": {Value: calls}, "phylo.newview_us": {Value: p50},
		}})
	}
	dir := t.TempDir()
	write := func(name string, set []report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, 500, 0))
	cases := []struct {
		name   string
		set    []report
		wantOK bool
		want   string
	}{
		{"same", mk(101, 500, 0), true, ""},
		{"slower", mk(140, 500, 0), false, "WORSE"},
		{"faster", mk(60, 500, 0), true, ""},
		{"failing", mk(100, 500, 2), false, "failed operations"},
		{"count", mk(100, 501, 0), true, "phylo.newview_calls  500 -> 501"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		ok, err := compareSets(&buf, spec, base, write(c.name+".json", c.set))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, buf.String())
		}
		if c.name != "count" && strings.Contains(buf.String(), "exact-count") {
			t.Errorf("%s: timings were listed as exact counts:\n%s", c.name, buf.String())
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady, growing := make([]jobRecord, 90), make([]jobRecord, 90)
	for i := range steady {
		steady[i].inflight = i % 3
		growing[i].inflight = i / 3
	}
	if backlogGrowing(steady) {
		t.Error("a steady open loop was flagged")
	}
	if !backlogGrowing(growing) {
		t.Error("a growing backlog was not flagged")
	}
}

// The arrival schedule is a function of the seed alone, holds the rate, and
// is the same multiset of gaps for every seed.
func TestArrivalSchedule(t *testing.T) {
	a := arrivalSchedule(7, 30, 20e9)
	b := arrivalSchedule(7, 30, 20e9)
	if len(a) != len(b) || len(a) < 500 || len(a) > 700 {
		t.Fatalf("%d and %d arrivals for 30/s over 20 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := arrivalSchedule(8, 30, 20e9)
	if c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
	if d := len(c) - len(a); d < -1 || d > 1 {
		t.Errorf("seeds 7 and 8 schedule %d and %d arrivals", len(a), len(c))
	}
}
