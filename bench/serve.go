package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/server"
	"cellmg/internal/stats"
)

// serveParams sizes serve_small. Jobs are tiny on purpose: with ~10 ms of
// kernels per job the server's own layers (decode, compress, WAL acceptance
// fsync, queue, retire) are a large share of a job's latency — the opposite
// of batch_bootstraps.
type serveParams struct {
	specs, taxa, sites int
	// rate is the open loop's fixed arrival rate in jobs/s, about a quarter
	// of the closed-loop capacity measured on the 2-thread host, so that
	// queueing exists but the backlog does not grow.
	rate float64
}

var serveSizes = map[string]serveParams{
	"full": {specs: 16, taxa: 8, sites: 200, rate: 30},
	"tiny": {specs: 4, taxa: 6, sites: 80, rate: 30},
}

// maxFinishedJobs is above any job count a run can reach, so no result is
// evicted before it is checked.
const maxFinishedJobs = 1 << 17

// serveWorkload is serve_small: the durable job server behind httptest,
// loaded first by a closed loop (capacity) and then by an open loop at a
// fixed rate (latency from each job's due time).
type serveWorkload struct {
	p      serveParams
	bodies [][]byte // POST bodies, one per distinct spec
	refs   [][]byte // the Result JSON each spec must produce
	order  []int    // seeded order in which arrivals cycle through the specs
	h      *harness
}

// harness is one server with its HTTP front and clients.
type harness struct {
	srv      *server.Server
	ts       *httptest.Server
	opts     server.Options
	load     *http.Client // the load generators: at most cfg.clients connections
	observer *http.Client // SSE streams and result fetches of the traced run
	next     atomic.Int64 // arrivals so far; selects the next spec
	jobs     atomic.Int64 // accepted jobs
	closed   bool
}

func (w *serveWorkload) startServer(cfg config, durable bool) (*harness, error) {
	h := &harness{opts: server.Options{
		Workers:         cfg.workers,
		Policy:          native.MGPS,
		QueueCapacity:   256,
		MaxFinishedJobs: maxFinishedJobs,
	}}
	if durable {
		dir, err := os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return nil, err
		}
		h.opts.DataDir = dir
	}
	srv, err := server.Open(h.opts)
	if err != nil {
		os.RemoveAll(h.opts.DataDir)
		return nil, err
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	onExit(h.close)
	h.load = &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.clients, MaxIdleConnsPerHost: cfg.clients}}
	h.observer = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return h, nil
}

func (h *harness) close() {
	if h == nil || h.closed {
		return
	}
	h.closed = true
	h.load.CloseIdleConnections()
	h.observer.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
	if h.opts.DataDir != "" {
		os.RemoveAll(h.opts.DataDir)
	}
}

func (w *serveWorkload) close() { w.h.close() }

func (w *serveWorkload) setup(cfg config) error {
	w.p = serveSizes[cfg.scale]
	w.order = rand.New(rand.NewSource(cfg.seed)).Perm(w.p.specs)

	// Reference results: what the same spec yields from the analysis driver
	// directly, without the server.
	rt := native.New(native.Options{Policy: native.MGPS, Workers: cfg.workers})
	defer rt.Close()
	search := phylo.DefaultSearchOptions()
	search.SmoothingRounds, search.MaxRounds, search.Epsilon = 1, 1, 0.1
	for i := 0; i < w.p.specs; i++ {
		aln, err := simulateAlignment(w.p.taxa, w.p.sites, int64(100+i), phylo.SingleRate(), cfg.seed)
		if err != nil {
			return err
		}
		spec := server.JobSpec{
			Tenant: "bench", Seed: int64(i + 1), Inferences: 1, Bootstraps: 1,
			Search: server.SearchSpec{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.1},
		}
		for t, name := range aln.Names {
			spec.Sequences = append(spec.Sequences, server.SequenceSpec{Name: name, Seq: string(aln.Seqs[t])})
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		data, err := phylo.Compress(aln)
		if err != nil {
			return err
		}
		res, err := native.RunAnalysis(rt, data, native.AnalysisOptions{
			Inferences: 1, Bootstraps: 1, Search: search, Seed: spec.Seed,
			Model: phylo.NewJC69(), Rates: phylo.SingleRate(),
		})
		if err != nil {
			return fmt.Errorf("reference for spec %d: %w", i, err)
		}
		ref, err := json.Marshal(server.ResultFromAnalysis(res))
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.refs = append(w.refs, ref)
	}

	h, err := w.startServer(cfg, true)
	if err != nil {
		return err
	}
	w.h = h
	// Warm-up: every spec once through the server, checked.
	warm := newOutcome()
	var recs []jobRecord
	for range w.bodies {
		rec := w.submit(h, time.Now())
		if rec.err == nil {
			<-rec.job.Done()
		}
		recs = append(recs, rec)
	}
	w.check(recs, warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up job: %s", warm.problems[0])
	}
	return nil
}

// jobRecord is one job as the load generator saw it.
type jobRecord struct {
	spec      int
	due       time.Time // when the schedule wanted it sent
	postStart time.Time
	postEnd   time.Time
	done      time.Time // Job.Done() observed
	inflight  int       // jobs due but not done when this one became due
	job       *server.Job
	err       error
}

// submit POSTs the next spec and resolves the accepted job. Anything but a
// 202 is a failed operation.
func (w *serveWorkload) submit(h *harness, due time.Time) jobRecord {
	rec := jobRecord{spec: w.order[int(h.next.Add(1)-1)%len(w.order)], due: due}
	rec.postStart = time.Now()
	resp, err := h.load.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(w.bodies[rec.spec]))
	if err != nil {
		rec.err = err
		return rec
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	rec.postEnd = time.Now()
	switch {
	case resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
	case err != nil:
		rec.err = err
	default:
		h.jobs.Add(1)
		job, ok := h.srv.Job(st.ID)
		if !ok {
			rec.err = fmt.Errorf("accepted job %s is unknown to the server", st.ID)
		}
		rec.job = job
	}
	return rec
}

// check verifies every job after the timed phase: accepted, done, and its
// Result JSON equal to the reference for its spec.
func (w *serveWorkload) check(recs []jobRecord, out *outcome) {
	for _, rec := range recs {
		out.attempted++
		if rec.err != nil {
			out.fail("job of spec %d: %v", rec.spec, rec.err)
			continue
		}
		st := rec.job.Status(time.Now())
		if st.State != server.StateDone {
			out.fail("job %s ended %s: %s", st.ID, st.State, st.Error)
			continue
		}
		got, err := json.Marshal(st.Result)
		if err != nil || !bytes.Equal(got, w.refs[rec.spec]) {
			out.fail("job %s: result differs from the reference for spec %d", st.ID, rec.spec)
		}
	}
}

// closedLoop runs cfg.clients clients, each submitting its next job when the
// previous one is done, for warm+dur; it returns the jobs that completed
// inside the last dur, per second, and every job's record.
func (w *serveWorkload) closedLoop(cfg config, h *harness, warm, dur time.Duration) (float64, []jobRecord) {
	start := time.Now()
	countFrom, end := start.Add(warm), start.Add(warm+dur)
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				rec := w.submit(h, time.Now())
				if rec.err == nil {
					<-rec.job.Done()
					rec.done = time.Now()
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				if rec.err != nil {
					return // a refused client stops; the failure is counted by check
				}
			}
		}()
	}
	wg.Wait()
	completed := 0
	for _, rec := range recs {
		if rec.err == nil && rec.done.After(countFrom) && !rec.done.After(end) {
			completed++
		}
	}
	return float64(completed) / dur.Seconds(), recs
}

// scheduleSeed fixes the open loop's sample path of Poisson gaps. How bursty
// 400 arrivals happen to be moves the latency tail by itself, so the path is
// a constant of the workload and the run's seed only rotates it: every seed
// sends the same gaps in another order against another order of specs.
const scheduleSeed = 20070314

// arrivalSchedule returns the open loop's arrival offsets over dur, made
// before anything is timed.
func arrivalSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(scheduleSeed))
	var gaps []float64
	for t := 0.0; t < dur.Seconds(); {
		g := rng.ExpFloat64() / rate
		gaps = append(gaps, g)
		t += g
	}
	rot := int(uint64(seed) % uint64(len(gaps)))
	var out []time.Duration
	t := 0.0
	for i := range gaps {
		t += gaps[(i+rot)%len(gaps)]
		if t < dur.Seconds() {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	return out
}

// scheduleSegment returns the arrivals due in [from, from+dur), as offsets
// from the segment's start.
func scheduleSegment(schedule []time.Duration, from, dur time.Duration) []time.Duration {
	var out []time.Duration
	for _, due := range schedule {
		if due >= from && due < from+dur {
			out = append(out, due-from)
		}
	}
	return out
}

// openLoop sends one job per schedule entry at its due time whatever the
// server's state, from cfg.clients connections, and returns the records once
// every job is done. With a tracer each job is also followed from outside:
// its event stream is read to the terminal event and its status fetched, and
// the stage boundaries become spans sharing the job's id.
func (w *serveWorkload) openLoop(cfg config, h *harness, schedule []time.Duration, tr *tracer, parent int) []jobRecord {
	recs := make([]jobRecord, len(schedule))
	// Buffered to the whole schedule: the dispatcher must never wait for a
	// free poster, or a stall would delay later arrivals unrecorded.
	work := make(chan int, len(schedule))
	var inflight atomic.Int64
	var posters, waiters sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		posters.Add(1)
		go func() {
			defer posters.Done()
			for k := range work {
				rec := w.submit(h, start.Add(schedule[k]))
				rec.inflight = recs[k].inflight
				recs[k] = rec
				if rec.err != nil {
					inflight.Add(-1)
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					<-rec.job.Done()
					recs[k].done = time.Now()
					inflight.Add(-1)
				}()
				if tr != nil {
					waiters.Add(1)
					go func() {
						defer waiters.Done()
						w.observeJob(h, rec, tr, parent, 1+k)
					}()
				}
			}
		}()
	}
	for k, due := range schedule {
		time.Sleep(time.Until(start.Add(due)))
		recs[k].inflight = int(inflight.Add(1)) - 1
		work <- k
	}
	close(work)
	posters.Wait()
	waiters.Wait()
	return recs
}

// observeJob follows one accepted job from a client's side and records its
// stages as spans: submit (the POST round trip), queue wait and run (the
// server's own timestamps), notify (finish to terminal event seen) and the
// result fetch.
func (w *serveWorkload) observeJob(h *harness, rec jobRecord, tr *tracer, parent, lane int) {
	id := rec.job.ID
	seen, err := awaitTerminalEvent(h, id)
	if err != nil {
		return
	}
	getStart := time.Now()
	resp, err := h.observer.Get(h.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	getEnd := time.Now()
	if err != nil || st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	tr.add("server.job", parent, lane, id, rec.postStart, seen)
	tr.add("server.submit", parent, lane, id, rec.postStart, rec.postEnd)
	tr.add("server.queue_wait", parent, lane, id, st.SubmittedAt, *st.StartedAt)
	tr.add("server.run", parent, lane, id, *st.StartedAt, *st.FinishedAt)
	tr.add("server.notify", parent, lane, id, *st.FinishedAt, seen)
	tr.add("server.get_result", parent, lane, id, getStart, getEnd)
}

// awaitTerminalEvent reads a job's SSE stream until its terminal event and
// returns when the client saw it.
func awaitTerminalEvent(h *harness, id string) (time.Time, error) {
	resp, err := h.observer.Get(h.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			switch typ {
			case server.EventDone, server.EventFailed, server.EventCancelled:
				return time.Now(), nil
			}
		}
	}
	return time.Time{}, fmt.Errorf("event stream of %s ended without a terminal event: %v", id, sc.Err())
}

// latencies returns each accepted job's due-time-to-done latency in ms and
// how late the generator sent it.
func latencies(recs []jobRecord) (lat, late []float64) {
	for _, r := range recs {
		if r.err == nil {
			lat = append(lat, float64(r.done.Sub(r.due))/1e6)
			late = append(late, float64(r.postStart.Sub(r.due))/1e6)
		}
	}
	return lat, late
}

// backlogGrowing reports whether the jobs in flight were still growing at
// the end of the open loop, which would make its latencies those of an
// overloaded server: the last third of the arrivals saw clearly more jobs in
// flight than the middle third.
func backlogGrowing(recs []jobRecord) bool {
	n := len(recs)
	if n < 30 {
		return false
	}
	third := func(lo, hi int) float64 {
		var xs []float64
		for _, r := range recs[lo:hi] {
			xs = append(xs, float64(r.inflight))
		}
		return mean(xs)
	}
	return third(2*n/3, n) > 1.5*third(n/3, 2*n/3)+2
}

// roundSeconds is the length of one closed-then-open round. The phases are
// interleaved in short rounds rather than run once each, so that both the
// capacity and the latency sample the host's state over the whole run: on a
// shared host that state drifts over tens of seconds, and a metric taken from
// one 7 s stretch follows the drift (the median latency moved by 18-20%
// between runs with one round, 6-15% with short ones).
const roundSeconds = 2.0

func (w *serveWorkload) measure(cfg config, out *outcome) error {
	rounds := max(1, int(cfg.seconds/roundSeconds))
	share := func(f float64) time.Duration {
		return time.Duration(f * cfg.seconds / float64(rounds) * float64(time.Second))
	}
	openDur := share(0.7)
	schedule := arrivalSchedule(cfg.seed, w.p.rate, time.Duration(rounds)*openDur)
	var capacities, raw, scaled []float64
	growing := 0
	sampler := startHostSampler()
	var openRecs []jobRecord
	for r := 0; r < rounds; r++ {
		// Closed loop: capacity.
		capacity, recs := w.closedLoop(cfg, w.h, share(0.05), share(0.25))
		w.check(recs, out)
		capacities = append(capacities, capacity)
		// Open loop at the fixed rate: latency from each job's due time.
		recs = w.openLoop(cfg, w.h, scheduleSegment(schedule, time.Duration(r)*openDur, openDur), nil, 0)
		w.check(recs, out)
		if backlogGrowing(recs) {
			growing++
		}
		openRecs = append(openRecs, recs...)
	}
	sampler.finish()
	// Each job's latency is scaled by the host's speed while it was in the
	// system (probe.go).
	for _, rec := range openRecs {
		if rec.err == nil {
			ms := float64(rec.done.Sub(rec.due)) / 1e6
			raw = append(raw, ms)
			scaled = append(scaled, ms*probeRefMS/sampler.around(rec.postStart, rec.done))
		}
	}
	if 2*growing > rounds {
		out.fail("open loop invalid: jobs in flight were still growing at the end of %d of %d rounds", growing, rounds)
	}
	if n := w.h.jobs.Load(); n >= maxFinishedJobs {
		out.fail("%d jobs exceed the server's finished-job retention", n)
	}
	reportOps(out, "", scaled, median(capacities))
	out.set("raw_op_p50_ms", median(raw))
	out.set("host_probe_ms", median(sampler.ms))
	return nil
}

// layers is the traced run: capacity with and without the job store, the
// open loop in segments, plain and followed job by job, then the store's own
// costs — append, bytes per job, and reopening (replay and compaction) the
// directory the run filled.
func (w *serveWorkload) layers(cfg config, tr *tracer, out *outcome) error {
	root := tr.begin("bench.run", 0)
	defer tr.end(root)
	sec := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	h := w.h

	s := tr.begin("bench.closed_loop.durable", root)
	capDurable, recs := w.closedLoop(cfg, h, sec(0.05), sec(0.15))
	tr.end(s)
	w.check(recs, out)

	mem, err := w.startServer(cfg, false)
	if err != nil {
		return err
	}
	s = tr.begin("bench.closed_loop.in_memory", root)
	capMem, recs := w.closedLoop(cfg, mem, sec(0.05), sec(0.15))
	tr.end(s)
	w.check(recs, out)
	mem.close()
	out.set("server.durable_overhead_ratio", ratio(capMem, capDurable))

	// The open loop alternates plain segments and segments followed job by
	// job, so that the tracing overhead compares jobs that met the same host
	// state.
	segments := 2 * max(1, int(0.25*cfg.seconds/roundSeconds))
	segDur := sec(0.5) / time.Duration(segments)
	schedule := arrivalSchedule(cfg.seed, w.p.rate, sec(0.5))
	var plain, traced []jobRecord
	growing := 0
	for i := 0; i < segments; i++ {
		part := scheduleSegment(schedule, time.Duration(i)*segDur, segDur)
		if i%2 == 0 {
			plain = append(plain, w.openLoop(cfg, h, part, nil, 0)...)
			continue
		}
		s = tr.begin("bench.open_loop.traced", root)
		recs := w.openLoop(cfg, h, part, tr, s)
		tr.end(s)
		if backlogGrowing(recs) {
			growing++
		}
		traced = append(traced, recs...)
	}
	w.check(plain, out)
	w.check(traced, out)
	if 4*growing > segments {
		out.fail("open loop invalid: jobs in flight were still growing at the end of %d of %d traced segments", growing, segments/2)
	}
	latPlain, _ := latencies(plain)
	lat, late := latencies(traced)
	reportOps(out, "bench.", latPlain, capDurable)
	out.set("bench.trace_overhead_ratio", ratio(median(lat), median(latPlain)))
	out.setSamples("server.job_p95_ms", lat, 0.95)
	out.setSamples("server.job_p99_ms", lat, 0.99)
	out.setSamples("server.generator_late_p99_ms", late, 0.99)
	inflightMax := 0
	for _, r := range traced {
		inflightMax = max(inflightMax, r.inflight+1)
	}
	out.set("server.inflight_max", float64(inflightMax))

	// A job's four stages should tile its lifetime as a client sees it; the
	// ratio says how much of it they leave unmeasured, or count twice.
	stages := []string{"server.submit", "server.queue_wait", "server.run", "server.notify"}
	var stageSum float64
	for _, name := range append(stages, "server.get_result") {
		xs := tr.ms(name)
		out.setSamples(name+"_ms", xs, 0.5)
		if name != "server.get_result" {
			stageSum += mean(xs)
		}
	}
	out.set("server.stage_sum_ratio", ratio(stageSum, mean(tr.ms("server.job"))))

	m := h.srv.Metrics()
	var rejected int
	var off stats.OffloadSummary
	for _, t := range m.Tenants {
		rejected += t.Rejected
		off.Merge(t.Offloads)
	}
	out.set("server.rejected", float64(rejected))
	if m.Durability != nil {
		out.set("server.wal_errors", float64(m.Durability.WALErrors))
	}
	// The pool idles between jobs, so its busy share here is the server's
	// utilisation over the whole traced run, not a search's.
	nativeLayer(out, h.srv.Runtime().Stats(), off, cfg.workers, float64(time.Since(tr.epoch))/1e6)

	out.set("server.wal_bytes_per_job", ratio(dirBytes(h.opts.DataDir), float64(h.jobs.Load())))
	h.ts.Close()
	h.srv.Close()
	s = tr.begin("server.Open.replay", root)
	t0 := time.Now()
	reopened, err := server.Open(h.opts)
	out.set("server.reopen_ms", float64(time.Since(t0))/1e6)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("reopening the job store: %w", err)
	}
	h.srv = reopened // so that close releases the reopened server
	if d := reopened.Metrics().Durability; d != nil {
		out.set("server.recovered_jobs", float64(d.RecoveredJobs))
	}

	walDir, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	onExit(func() { os.RemoveAll(walDir) })
	s = tr.begin("server.WALAppendBench", root)
	res := testing.Benchmark(server.WALAppendBench(walDir))
	tr.end(s)
	if res.N == 0 {
		return fmt.Errorf("WAL append benchmark failed")
	}
	out.set("server.wal_append_us", float64(res.T.Nanoseconds())/1e3/float64(res.N))
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}
