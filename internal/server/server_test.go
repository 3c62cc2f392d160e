package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cellmg/internal/native"
)

// smallSpec is a job that completes in well under a second.
func smallSpec(seed int64) JobSpec {
	return JobSpec{
		Seed:       seed,
		Inferences: 2,
		Bootstraps: 2,
		Search:     SearchSpec{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.05},
		Simulate:   &SimulateSpec{Taxa: 8, Length: 300, Seed: seed},
	}
}

// longSpec is a job that runs for several seconds — used to occupy the server
// while tests cancel or queue behind it.
func longSpec(seed int64) JobSpec {
	return JobSpec{
		Seed:       seed,
		Inferences: 2,
		Bootstraps: 12,
		Search:     SearchSpec{SmoothingRounds: 6, MaxRounds: 32, Epsilon: 1e-12},
		Simulate:   &SimulateSpec{Taxa: 14, Length: 800, Seed: seed},
	}
}

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, base string, spec JobSpec) JobStatus {
	t.Helper()
	st, code := submitCode(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func submitCode(t *testing.T, base string, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return JobStatus{}, resp.StatusCode
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTwoConcurrentJobsMatchSerial is the determinism acceptance criterion:
// two jobs interleaved on one shared (MGPS) runtime must produce results
// byte-identical to the same specs run serially via native.RunAnalysis. The
// third spec is the first one plus the retired search.speculation field: the
// strict decoder must still accept it (202) and its result must equal the
// first job's byte for byte.
func TestTwoConcurrentJobsMatchSerial(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 4, Policy: native.MGPS, MaxConcurrent: 2})

	specs := []JobSpec{smallSpec(101), smallSpec(202), smallSpec(101)}
	specs[2].Search.Speculation = 4
	results := make([][]byte, len(specs))
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submit(t, ts.URL, spec).ID
		}()
	}
	wg.Wait()

	for i, spec := range specs {
		st := waitTerminal(t, ts.URL, ids[i], 30*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s, error %q", ids[i], st.State, st.Error)
		}
		got, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}

		// Serial reference: same spec through native.RunAnalysis on a
		// private runtime.
		data, err := spec.buildAlignment()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := spec.analysisOptions()
		if err != nil {
			t.Fatal(err)
		}
		rt := native.New(native.Options{Workers: 1, Policy: native.EDTLP})
		res, err := native.RunAnalysis(rt, data, opts)
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ResultFromAnalysis(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: shared-runtime result differs from serial reference\n got: %s\nwant: %s", i, got, want)
		}
		results[i] = got
	}
	if !bytes.Equal(results[2], results[0]) {
		t.Errorf("search.speculation changed the result\n with: %s\nwithout: %s", results[2], results[0])
	}
}

// TestCancelRunningJobFreesWorkers is the cancellation acceptance criterion:
// DELETE on a running job must return its workers so a queued job starts.
func TestCancelRunningJobFreesWorkers(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Policy: native.EDTLP, MaxConcurrent: 1})

	long := submit(t, ts.URL, longSpec(7))
	// Wait until the long job is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts.URL, long.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued := submit(t, ts.URL, smallSpec(8))
	if st := getStatus(t, ts.URL, queued.ID).State; st != StateQueued {
		t.Fatalf("second job should queue behind MaxConcurrent=1, got %s", st)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	if st := waitTerminal(t, ts.URL, long.ID, 15*time.Second); st.State != StateCancelled {
		t.Fatalf("long job state = %s, want cancelled", st.State)
	}
	st := waitTerminal(t, ts.URL, queued.ID, 20*time.Second)
	if st.State != StateDone {
		t.Fatalf("queued job state = %s, error %q", st.State, st.Error)
	}
	if st.StartedAt == nil {
		t.Fatal("queued job has no start time")
	}
	if wait := st.StartedAt.Sub(cancelAt); wait > 10*time.Second {
		t.Errorf("queued job waited %v after cancel to start", wait)
	}
}

func TestQueueFullGets429(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Policy: native.EDTLP, MaxConcurrent: 1, QueueCapacity: 1})

	blocker := submit(t, ts.URL, longSpec(3))
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts.URL, blocker.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	submit(t, ts.URL, smallSpec(4)) // fills the queue
	if _, code := submitCode(t, ts.URL, smallSpec(5)); code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
}

func TestPriorityAdmissionOrder(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Policy: native.EDTLP, MaxConcurrent: 1})

	blocker := submit(t, ts.URL, longSpec(31))
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts.URL, blocker.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	batchSpec := smallSpec(32)
	batchSpec.Priority = "batch"
	batch := submit(t, ts.URL, batchSpec)
	interactive := submit(t, ts.URL, smallSpec(33)) // default interactive

	// Free the runner; the interactive job must be admitted first even
	// though it was submitted after the batch job.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	iSt := waitTerminal(t, ts.URL, interactive.ID, 20*time.Second)
	bSt := waitTerminal(t, ts.URL, batch.ID, 20*time.Second)
	if iSt.State != StateDone || bSt.State != StateDone {
		t.Fatalf("states: interactive %s, batch %s", iSt.State, bSt.State)
	}
	if iSt.StartedAt == nil || bSt.StartedAt == nil {
		t.Fatal("missing start times")
	}
	if bSt.StartedAt.Before(*iSt.StartedAt) {
		t.Errorf("batch started %v before interactive %v", bSt.StartedAt, iSt.StartedAt)
	}
}

func TestEventsStreamLifecycle(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Policy: native.EDTLP, MaxConcurrent: 1})
	st := submit(t, ts.URL, smallSpec(71))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The stream ends when the job reaches a terminal state.
	var types []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
	}
	if len(types) == 0 {
		t.Fatal("no events received")
	}
	if types[0] != EventQueued {
		t.Errorf("first event %q, want queued", types[0])
	}
	if last := types[len(types)-1]; last != EventDone {
		t.Errorf("last event %q, want done", last)
	}
	var sawStarted, sawProgress bool
	for _, ty := range types {
		sawStarted = sawStarted || ty == EventStarted
		sawProgress = sawProgress || ty == EventProgress
	}
	if !sawStarted || !sawProgress {
		t.Errorf("event stream %v missing started/progress", types)
	}
	// Progress events must cover every task (4 in smallSpec).
	n := 0
	for _, ty := range types {
		if ty == EventProgress {
			n++
		}
	}
	if n != 4 {
		t.Errorf("progress events = %d, want 4", n)
	}
}

func TestAdmissionErrors(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, MaxTasksPerJob: 4, MaxAlignmentCells: 10_000})

	cases := []struct {
		name string
		spec JobSpec
		code int
	}{
		{"bad priority", func() JobSpec { s := smallSpec(1); s.Priority = "urgent"; return s }(), http.StatusBadRequest},
		{"no alignment", JobSpec{Seed: 1, Inferences: 1}, http.StatusBadRequest},
		{"both alignments", func() JobSpec {
			s := smallSpec(1)
			s.Sequences = []SequenceSpec{{Name: "a", Seq: "ACGT"}}
			return s
		}(), http.StatusBadRequest},
		{"too many tasks", func() JobSpec { s := smallSpec(1); s.Bootstraps = 100; return s }(), http.StatusUnprocessableEntity},
		{"alignment too large", func() JobSpec {
			s := smallSpec(1)
			s.Simulate = &SimulateSpec{Taxa: 40, Length: 4000, Seed: 1}
			return s
		}(), http.StatusUnprocessableEntity},
		{"bad sequences", JobSpec{Seed: 1, Sequences: []SequenceSpec{{Name: "a", Seq: "ACGT"}, {Name: "b", Seq: "AC"}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := submitCode(t, ts.URL, c.spec); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
	}

	// Unknown job id.
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}

	// Every rejection above must be visible in the tenant's metrics.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	tm := snap.Tenants["default"]
	if tm.Rejected != len(cases) || tm.Submitted != len(cases) {
		t.Errorf("default tenant metrics after %d rejections: %+v", len(cases), tm)
	}
}

// TestSimulateSpecSizedBeforeSimulating: a simulate spec over the cell cap is
// refused from its two numbers, with the error an over-cap alignment gets.
// Admission that simulated 3 × 20,000,000 first allocated 124 MB to do so.
func TestSimulateSpecSizedBeforeSimulating(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	for _, c := range []struct {
		taxa, length int
		want         string
	}{
		{3, 20_000_000, "alignment has 60000000 cells, limit is 1048576"},
		{1 << 40, 1 << 40, "alignment has 1208925819614629174706176 cells, limit is 1048576"},
	} {
		spec := smallSpec(1)
		spec.Simulate = &SimulateSpec{Taxa: c.taxa, Length: c.length, Seed: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.Submit(spec)
		runtime.ReadMemStats(&after)
		var ae *admissionError
		if !errors.As(err, &ae) || ae.code != http.StatusUnprocessableEntity || ae.msg != c.want {
			t.Fatalf("%d × %d: Submit returned %v, want 422 %q", c.taxa, c.length, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%d × %d: refusing the spec allocated %d bytes", c.taxa, c.length, got)
		}
	}
}

func TestCancelCompletedJobConflicts(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	st := submit(t, ts.URL, smallSpec(11))
	waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: status %d, want 409", resp.StatusCode)
	}
}

func TestMetricsPerTenant(t *testing.T) {
	srv, ts := startServer(t, Options{Workers: 4, Policy: native.MGPS, MaxConcurrent: 2})

	specA := smallSpec(41)
	specA.Tenant = "alice"
	specB := smallSpec(42)
	specB.Tenant = "bob"
	a := submit(t, ts.URL, specA)
	b := submit(t, ts.URL, specB)
	waitTerminal(t, ts.URL, a.ID, 30*time.Second)
	waitTerminal(t, ts.URL, b.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		tm, ok := snap.Tenants[tenant]
		if !ok {
			t.Fatalf("tenant %q missing from metrics: %+v", tenant, snap.Tenants)
		}
		if tm.Submitted != 1 || tm.Completed != 1 {
			t.Errorf("%s: %+v", tenant, tm)
		}
		if tm.Offloads.Offloads != 4 {
			t.Errorf("%s: offloads = %d, want 4 (2 inferences + 2 bootstraps)", tenant, tm.Offloads.Offloads)
		}
		if tm.Offloads.RunTotal <= 0 {
			t.Errorf("%s: no kernel time accounted", tenant)
		}
	}
	// The shared runtime saw the union of both tenants' tasks.
	if snap.Runtime.TasksRun < 8 {
		t.Errorf("runtime tasks = %d, want >= 8", snap.Runtime.TasksRun)
	}
	if srv.Runtime().Policy() != native.MGPS {
		t.Errorf("policy = %v", srv.Runtime().Policy())
	}

	// Per-job status carries its own off-load accounting.
	aSt := getStatus(t, ts.URL, a.ID)
	if aSt.Offloads.Offloads != 4 {
		t.Errorf("job offloads = %d, want 4", aSt.Offloads.Offloads)
	}

	rejectAndCancel(t, ts.URL)
	var snap2 MetricsSnapshot
	_, jb := get(t, ts.URL+"/v1/metrics")
	if err := json.Unmarshal(jb, &snap2); err != nil {
		t.Fatal(err)
	}
	for tenant, want := range map[string][5]int{
		"alice":   {1, 0, 1, 0, 0},
		"bob":     {1, 0, 1, 0, 0},
		"mallory": {1, 1, 0, 0, 0},
		"dave":    {1, 0, 0, 0, 1},
	} {
		if got := tenantCounts(snap2.Tenants[tenant]); got != want {
			t.Errorf("%s: submitted/rejected/completed/failed/cancelled = %v, want %v", tenant, got, want)
		}
	}
	_, text := get(t, ts.URL+"/metrics")
	assertTenantsMatchSeries(t, snap2, string(text))
}

// rejectAndCancel adds the two tenant outcomes a job run to completion never
// produces: tenant "mallory" is only ever rejected (an unknown priority), and
// tenant "dave" has a long job cancelled.
func rejectAndCancel(t *testing.T, base string) {
	t.Helper()
	bad := smallSpec(90)
	bad.Tenant, bad.Priority = "mallory", "urgent"
	if _, code := submitCode(t, base, bad); code != http.StatusBadRequest {
		t.Fatalf("unknown priority: status %d, want 400", code)
	}
	long := longSpec(91)
	long.Tenant = "dave"
	st := submit(t, base, long)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, base, st.ID, 30*time.Second); st.State != StateCancelled {
		t.Fatalf("dave's job ended %s, want cancelled", st.State)
	}
}

// tenantOutcomes names the five per-tenant counters, in TenantMetrics order.
var tenantOutcomes = [5]string{"submitted", "rejected", "completed", "failed", "cancelled"}

func tenantCounts(tm TenantMetrics) [5]int {
	return [5]int{tm.Submitted, tm.Rejected, tm.Completed, tm.Failed, tm.Cancelled}
}

// assertTenantsMatchSeries holds every tenant's five counts in /v1/metrics to
// its cellmg_jobs_*_total series in the /metrics text (a missing series is 0),
// and every tenant with a series to a /v1/metrics entry.
func assertTenantsMatchSeries(t *testing.T, snap MetricsSnapshot, text string) {
	t.Helper()
	series := map[string][5]int{}
	for _, line := range strings.Split(text, "\n") {
		key, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for i, outcome := range tenantOutcomes {
			tenant, ok := strings.CutPrefix(key, "cellmg_jobs_"+outcome+`_total{tenant="`)
			if !ok {
				continue
			}
			n, err := strconv.Atoi(value)
			if err != nil {
				t.Fatalf("series %s: %v", key, err)
			}
			c := series[strings.TrimSuffix(tenant, `"}`)]
			c[i] = n
			series[strings.TrimSuffix(tenant, `"}`)] = c
		}
	}
	for tenant := range series {
		if _, ok := snap.Tenants[tenant]; !ok {
			t.Errorf("tenant %q has /metrics series but no /v1/metrics entry", tenant)
		}
	}
	for tenant, tm := range snap.Tenants {
		if got, want := tenantCounts(tm), series[tenant]; got != want {
			t.Errorf("%s: /v1/metrics counts %v, /metrics series %v (%v)", tenant, got, want, tenantOutcomes)
		}
	}
}

func TestListJobsFiltersTenant(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	specA := smallSpec(51)
	specA.Tenant = "alice"
	a := submit(t, ts.URL, specA)
	submit(t, ts.URL, smallSpec(52)) // default tenant
	waitTerminal(t, ts.URL, a.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != a.ID {
		t.Fatalf("list = %+v, want just %s", list, a.ID)
	}
	if list[0].Result != nil {
		t.Error("listing should omit results")
	}
}

func TestServerCloseCancelsQueuedJobs(t *testing.T) {
	s := New(Options{Workers: 2, Policy: native.EDTLP, MaxConcurrent: 1})
	blocker, err := s.Submit(longSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued, err := s.Submit(smallSpec(62))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("close took %v", d)
	}
	if st := blocker.State(); st != StateCancelled {
		t.Errorf("blocker state = %s", st)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued state = %s", st)
	}
	// Submitting after close is refused.
	if _, err := s.Submit(smallSpec(63)); err == nil {
		t.Error("submit after close succeeded")
	}
}

func TestFinishedJobEviction(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, MaxFinishedJobs: 1})
	first := submit(t, ts.URL, smallSpec(81))
	waitTerminal(t, ts.URL, first.ID, 30*time.Second)
	second := submit(t, ts.URL, smallSpec(82))
	waitTerminal(t, ts.URL, second.ID, 30*time.Second)

	// Retention is 1: finishing the second job evicts the first.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job: status %d, want 404", resp.StatusCode)
	}
	if st := getStatus(t, ts.URL, second.ID); st.State != StateDone {
		t.Errorf("retained job state = %s", st.State)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, MaxRequestBytes: 1024})
	// Valid JSON, so the decoder reads past the byte cap instead of failing
	// on a syntax error first.
	big := []byte(`{"tenant":"` + strings.Repeat("x", 4096) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

// TestDeterminismAcrossServerPolicies re-runs one spec on servers with
// different policies and worker counts; all must agree byte for byte.
func TestDeterminismAcrossServerPolicies(t *testing.T) {
	spec := smallSpec(909)
	var reference []byte
	for _, opt := range []Options{
		{Workers: 1, Policy: native.EDTLP},
		{Workers: 4, Policy: native.StaticLLP, SPEsPerLoop: 2},
		{Workers: 4, Policy: native.MGPS},
	} {
		_, ts := startServer(t, opt)
		st := submit(t, ts.URL, spec)
		final := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
		if final.State != StateDone {
			t.Fatalf("policy %v: %s (%s)", opt.Policy, final.State, final.Error)
		}
		got, err := json.Marshal(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = got
			continue
		}
		if !bytes.Equal(got, reference) {
			t.Errorf("policy %v: result differs:\n got: %s\nwant: %s", opt.Policy, got, reference)
		}
	}
}
