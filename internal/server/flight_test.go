package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// chromeTrace is the minimal shape of the exporter's output the tests care
// about.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string         `json:"ph"`
		Name string         `json:"name"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, body []byte) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	return tr
}

// TestTraceEndpointsDisabled: without Options.Flight the trace endpoints are
// 501, while /metrics still works.
func TestTraceEndpointsDisabled(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	st := submit(t, ts.URL, smallSpec(1))
	waitTerminal(t, ts.URL, st.ID, 30*time.Second)

	resp, _ := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("GET /v1/trace = %d, want 501", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("GET /v1/jobs/{id}/trace = %d, want 501", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/jobs/nope/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET trace of unknown job = %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics = %d, want 200 even without flight", resp.StatusCode)
	}
}

// TestTwoTenantTrace is the tracing acceptance scenario: two tenants' jobs on
// one shared runtime, the full trace carries both flows plus runtime spans,
// and each job's trace endpoint serves only its own flow.
func TestTwoTenantTrace(t *testing.T) {
	s, ts := startServer(t, Options{Workers: 4, MaxConcurrent: 2, Flight: true})

	sa := smallSpec(11)
	sa.Tenant = "alice"
	sb := smallSpec(22)
	sb.Tenant = "bob"
	ja := submit(t, ts.URL, sa)
	jb := submit(t, ts.URL, sb)
	waitTerminal(t, ts.URL, ja.ID, 30*time.Second)
	waitTerminal(t, ts.URL, jb.ID, 30*time.Second)

	if s.Flight() == nil {
		t.Fatal("server has no recorder despite Options.Flight")
	}

	resp, body := get(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	tr := parseTrace(t, body)
	counts := map[string]int{}
	flows := map[string]int{}
	for _, ev := range tr.TraceEvents {
		counts[ev.Ph+"/"+ev.Name]++
		if f, ok := ev.Args["flow"].(string); ok {
			flows[f]++
		}
	}
	for _, want := range []string{"X/queue", "X/kernel", "X/job-queued", "X/job-run"} {
		if counts[want] == 0 {
			t.Errorf("full trace has no %s events; got %v", want, counts)
		}
	}
	// Both tenants' flows are labelled with id/tenant.
	for _, want := range []string{ja.ID + "/alice", jb.ID + "/bob"} {
		if flows[want] == 0 {
			t.Errorf("full trace has no events for flow %q; flows seen: %v", want, flows)
		}
	}
	// Each job ran 4 tasks: exactly 4 kernel spans per flow, 8 total.
	if counts["X/kernel"] != 8 {
		t.Errorf("kernel spans = %d, want 8 (2 jobs x 4 tasks)", counts["X/kernel"])
	}
	if counts["M/thread_name"] == 0 {
		t.Error("trace has no thread_name metadata; Perfetto lanes would be unnamed")
	}

	// Per-job trace: only this job's flow (plus unlabelled policy events).
	resp, body = get(t, ts.URL+"/v1/jobs/"+ja.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job trace = %d", resp.StatusCode)
	}
	jtr := parseTrace(t, body)
	var kernels int
	for _, ev := range jtr.TraceEvents {
		if f, ok := ev.Args["flow"].(string); ok && f != ja.ID+"/alice" {
			t.Errorf("job trace leaks flow %q (event %s)", f, ev.Name)
		}
		if ev.Ph == "X" && ev.Name == "kernel" {
			kernels++
		}
	}
	if kernels != 4 {
		t.Errorf("job trace kernel spans = %d, want 4", kernels)
	}
}

// TestPrometheusAndJSONAgree: the /v1/metrics latency percentiles and the
// Prometheus histograms come from the same instances, so their counts match;
// the tenant counters match the JSON tenant metrics.
func TestPrometheusAndJSONAgree(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Flight: true})
	sa := smallSpec(7)
	sa.Tenant = "carol"
	st := submit(t, ts.URL, sa)
	waitTerminal(t, ts.URL, st.ID, 30*time.Second)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	text := string(body)
	for _, want := range []string{
		`cellmg_jobs_submitted_total{tenant="carol"} 1`,
		`cellmg_jobs_completed_total{tenant="carol"} 1`,
		"cellmg_job_run_seconds_count 1",
		"cellmg_job_queue_wait_seconds_count 1",
		"# TYPE cellmg_job_run_seconds histogram",
		"cellmg_workers 2",
		"cellmg_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// 4 tasks offloaded -> the offload histograms saw 4 events each.
	if !strings.Contains(text, "cellmg_offload_run_seconds_count 4") {
		t.Errorf("exposition missing offload_run count 4:\n%s", text)
	}

	var snap MetricsSnapshot
	_, jb := get(t, ts.URL+"/v1/metrics")
	if err := json.Unmarshal(jb, &snap); err != nil {
		t.Fatal(err)
	}
	// The two surfaces dropped the heavy-loop counter together.
	if strings.Contains(text, "loops_heavy") || strings.Contains(string(jb), "loops_heavy") {
		t.Errorf("loops_heavy is still exported by /metrics or /v1/metrics")
	}
	for key, wantCount := range map[string]uint64{
		"job_run":            1,
		"job_queue_wait":     1,
		"offload_run":        4,
		"offload_queue_wait": 4,
	} {
		lat, ok := snap.Latencies[key]
		if !ok {
			t.Fatalf("/v1/metrics has no latency summary %q", key)
		}
		if lat.Count != wantCount {
			t.Errorf("latencies[%q].count = %d, want %d", key, lat.Count, wantCount)
		}
		if lat.Count > 0 && (lat.P50MS < 0 || lat.P99MS < lat.P50MS) {
			t.Errorf("latencies[%q] percentiles not monotone: %+v", key, lat)
		}
	}
	if snap.Latencies["job_run"].MeanMS <= 0 {
		t.Error("job_run mean is not positive after a completed job")
	}

	// With every tenant outcome present, the tenant counts agree series by
	// series, and both surfaces expose exactly the keys they did when
	// testdata/metrics_surface.txt was written at b0efb34 (the last commit
	// that kept the tenant counts in a map of its own beside the registry).
	rejectAndCancel(t, ts.URL)
	_, body = get(t, ts.URL+"/metrics")
	_, jb = get(t, ts.URL+"/v1/metrics")
	snap = MetricsSnapshot{}
	if err := json.Unmarshal(jb, &snap); err != nil {
		t.Fatal(err)
	}
	assertTenantsMatchSeries(t, snap, string(body))
	raw, err := os.ReadFile("testdata/metrics_surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if got := surfaceKeys(t, body, jb); !slices.Equal(got, want) {
		t.Errorf("metrics surface changed:\n got %q\nwant %q", got, want)
	}
}

// surfaceKeys lists what the two metrics surfaces expose, values left out:
// every "# TYPE" line and series key of the /metrics text in exposition
// order, then every key path of the /v1/metrics JSON, sorted.
func surfaceKeys(t *testing.T, text, jsonBody []byte) []string {
	t.Helper()
	var keys []string
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			keys = append(keys, line)
		case !strings.HasPrefix(line, "#"):
			key, _, _ := strings.Cut(line, " ")
			keys = append(keys, key)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(jsonBody, &doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		paths = append(paths, prefix)
		if m, ok := v.(map[string]any); ok {
			for k, sub := range m {
				walk(prefix+"."+k, sub)
			}
		}
	}
	for k, v := range doc {
		walk(k, v)
	}
	sort.Strings(paths)
	return append(keys, paths...)
}

// TestCancelQueuedJobClosesQueuedSpan: a job cancelled while still queued gets
// a job-queued span and no job-run span.
func TestCancelQueuedJobClosesQueuedSpan(t *testing.T) {
	s, ts := startServer(t, Options{Workers: 2, MaxConcurrent: 1, Flight: true})

	// Occupy the single admission slot, then queue and cancel a second job.
	running := submit(t, ts.URL, longSpec(1))
	queued := submit(t, ts.URL, smallSpec(2))
	if _, found, cancelled := s.Cancel(queued.ID); !found || !cancelled {
		t.Fatalf("cancel queued job: found=%v cancelled=%v", found, cancelled)
	}
	if _, found, cancelled := s.Cancel(running.ID); !found || !cancelled {
		t.Fatalf("cancel running job: found=%v cancelled=%v", found, cancelled)
	}
	waitTerminal(t, ts.URL, running.ID, 30*time.Second)

	j, ok := s.Job(queued.ID)
	if !ok {
		t.Fatal("queued job vanished")
	}
	snap := s.Flight().Snapshot().Filter(j.flightID)
	var qspans, rspans int
	for _, ev := range snap.Events {
		switch ev.Kind.String() {
		case "job-queued":
			qspans++
		case "job-run":
			rspans++
		}
	}
	if qspans != 1 || rspans != 0 {
		t.Errorf("cancelled-while-queued job: job-queued=%d job-run=%d, want 1/0\n%s",
			qspans, rspans, snap.Summary())
	}
}
