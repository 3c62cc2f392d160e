// Package server is the multi-tenant serving layer over the native multigrain
// runtime: an HTTP/JSON job API backed by a bounded priority queue and an
// admission controller that maps every accepted job's inferences and
// bootstraps onto submitters of ONE shared native.Runtime.
//
// Sharing the runtime is the point, not a convenience: the MGPS policy
// observes the union of all tenants' off-loads, so it sees exactly the regime
// the paper evaluates — many independent task streams multiplexed onto a
// fixed worker pool, with loop-level parallelism switched on when the streams
// thin out and off when they saturate the pool.
//
// Request lifecycle:
//
//	client ── POST /v1/jobs ──▶ admission checks ──▶ bounded priority queue
//	                                                        │ Pop (runner)
//	                                                        ▼
//	             shared native.Runtime ◀── one Submitter per task
//	                 │  MGPS sees the union of all jobs' off-loads
//	                 ▼
//	   progress events (SSE) ── GET /v1/jobs/{id}/events
//	   result + metrics      ── GET /v1/jobs/{id}, /v1/metrics
//
// Determinism: a job's result is a pure function of its spec. Every task seed
// is derived with phylo.DeriveSeed from (job seed, stream, index), so a job
// interleaved with arbitrary other tenants produces bit-identical results to
// the same spec run serially.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cellmg/internal/faultinject"
	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/stats"
)

// Options configures a Server.
type Options struct {
	// Workers, Policy, SPEsPerLoop configure the shared native runtime
	// (defaults follow native.Options).
	Workers     int
	Policy      native.PolicyKind
	SPEsPerLoop int

	// QueueCapacity bounds how many accepted jobs may wait (default 64);
	// submissions beyond it get 429.
	QueueCapacity int
	// MaxConcurrent is the admission width: how many jobs feed the shared
	// runtime at once (default 4). More concurrent jobs means more task
	// streams, which pushes MGPS toward EDTLP; fewer means wider worker
	// groups per task.
	MaxConcurrent int
	// MaxTasksPerJob caps inferences+bootstraps per job (default 256).
	MaxTasksPerJob int
	// MaxAlignmentCells caps taxa*sites of a job's alignment (default 1M).
	MaxAlignmentCells int
	// MaxRequestBytes caps the POST /v1/jobs body (default 8 MiB), so the
	// in-spec size limits cannot be bypassed by a body too large to buffer.
	MaxRequestBytes int64
	// MaxFinishedJobs bounds how many terminal jobs stay queryable (default
	// 1024); beyond it the oldest are evicted and their ids return 404.
	MaxFinishedJobs int

	// Flight enables the runtime flight recorder: off-load and job lifecycle
	// spans plus MGPS decisions become downloadable Chrome traces at
	// GET /v1/trace and GET /v1/jobs/{id}/trace. The Prometheus /metrics
	// surface is always on; only tracing is gated (it holds per-lane ring
	// buffers in memory).
	Flight bool

	// DataDir, when set, enables the write-ahead job store: accepted jobs,
	// per-task completions and search checkpoints are logged there, and Open
	// replays the log on startup — re-enqueueing incomplete jobs so they
	// resume (byte-identically) from their recorded position. Empty keeps
	// the pre-durability in-memory behaviour.
	DataDir string
	// MaxJobAttempts bounds how many times a recovered job may be restarted
	// after crashing mid-run (default 3); past it the job fails terminally,
	// so a poison job cannot crash-loop the server.
	MaxJobAttempts int
	// RetryBackoff is the base of the exponential re-admission delay for
	// crashed jobs (default 500ms): attempt n waits base<<(n-1), capped at
	// 30s.
	RetryBackoff time.Duration
	// FaultInjector arms deterministic WAL faults — crash-recovery tests
	// only; leave nil in production.
	FaultInjector *faultinject.Injector
}

func (o *Options) withDefaults() Options {
	out := *o
	// The flight recorder's lanes are sized before the runtime exists, so
	// the worker default is resolved here, by native's rule.
	if out.Workers <= 0 {
		out.Workers = native.DefaultWorkers()
	}
	if out.QueueCapacity <= 0 {
		out.QueueCapacity = 64
	}
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 4
	}
	if out.MaxTasksPerJob <= 0 {
		out.MaxTasksPerJob = 256
	}
	if out.MaxAlignmentCells <= 0 {
		out.MaxAlignmentCells = 1 << 20
	}
	if out.MaxRequestBytes <= 0 {
		out.MaxRequestBytes = 8 << 20
	}
	if out.MaxFinishedJobs <= 0 {
		out.MaxFinishedJobs = 1024
	}
	if out.MaxJobAttempts <= 0 {
		out.MaxJobAttempts = 3
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 500 * time.Millisecond
	}
	return out
}

// Server owns the shared runtime, the queue, the job table and the HTTP API.
type Server struct {
	opts    Options
	rt      *native.Runtime
	queue   *jobQueue
	metrics *metricsRegistry
	prom    *promMetrics
	flight  *flight.Recorder
	store   *jobStore // nil without Options.DataDir
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup
	running    atomic.Int32

	// draining gates admission during SIGTERM drain; drainRetryAfter is the
	// Retry-After hint (seconds) handed to rejected clients.
	draining        atomic.Bool
	drainRetryAfter atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job ids, oldest first, for bounded retention
	nextID   int64
	closed   bool

	closeOnce sync.Once
}

// errDrainAbort is the cancellation cause drain uses to stop still-running
// jobs once the timeout expires. A job aborted with it is deliberately left
// incomplete — in memory AND in the WAL — so the next incarnation resumes it
// from its latest checkpoint instead of marking it cancelled.
var errDrainAbort = errors.New("server draining")

// New creates a server, its shared runtime, and MaxConcurrent admission
// runners. Close must be called to release them. New panics if a job store
// is requested (Options.DataDir) and fails to open; durable servers should
// prefer Open, which reports the error.
func New(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open is New with the job-store error surfaced: when Options.DataDir is
// set it opens (or creates) the write-ahead job store, replays it, restores
// terminal jobs into the queryable table and re-enqueues incomplete ones to
// resume from their latest checkpoints.
func Open(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var rec *flight.Recorder
	if opts.Flight {
		rec = flight.New(flight.Config{Workers: opts.Workers})
	}
	s := &Server{
		opts: opts,
		rt: native.New(native.Options{
			Workers:     opts.Workers,
			Policy:      opts.Policy,
			SPEsPerLoop: opts.SPEsPerLoop,
			Flight:      rec,
		}),
		queue:  newJobQueue(opts.QueueCapacity),
		flight: rec,
		jobs:   map[string]*Job{},
	}
	// The Prometheus registry's gauges read live server state, so it is
	// built after the runtime and queue exist; the tenant registry reads its
	// admission counters.
	s.prom = newPromMetrics(s)
	s.metrics = newMetricsRegistry(s.prom)
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	if opts.DataDir != "" {
		st, recovered, err := openJobStore(walOptions{
			dir:     opts.DataDir,
			inj:     opts.FaultInjector,
			onError: func(op string) { s.prom.walErrors.With(op).Inc() },
		})
		if err != nil {
			s.rt.Close()
			return nil, err
		}
		s.store = st
		s.recoverJobs(recovered)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	for i := 0; i < opts.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// recoverJobs rebuilds the job table from the replayed store: terminal jobs
// become queryable history, incomplete ones are re-enqueued carrying their
// completed-task outcomes and latest checkpoints so runJob skips and resumes
// instead of recomputing.
func (s *Server) recoverJobs(recovered map[string]*recoveredJob) {
	for _, r := range sortedRecoveredJobs(recovered) {
		// Keep the id counter ahead of every recovered id, whatever mix of
		// incarnations produced them.
		var n int64
		if _, err := fmt.Sscanf(r.id, "j-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		if !r.incomplete() {
			s.restoreTerminal(r, r.state, r.errMsg, r.result, "terminal")
			continue
		}
		var data *phylo.PatternAlignment
		var err error
		if r.attempts >= s.opts.MaxJobAttempts { // a poison job
			err = fmt.Errorf("job crashed the server %d times; giving up", r.attempts)
		} else {
			data, err = r.spec.buildAlignment() // validated when first accepted
		}
		if err != nil {
			s.store.jobFinished(r.id, StateFailed, err.Error(), nil)
			s.restoreTerminal(r, StateFailed, err.Error(), nil, "failed")
			continue
		}
		j := s.newJob(r.id, r.spec, data)
		j.attempts = r.attempts
		j.skipTasks = r.tasks
		j.resumes = r.ckpts
		s.prom.recoveredTasksVec.With("done").Add(float64(len(r.tasks)))
		s.prom.recoveredTasksVec.With("checkpoint").Add(float64(len(r.ckpts)))
		s.jobs[r.id] = j
		s.prom.submitted.With(j.Tenant).Inc()
		j.events.Append(EventQueued, map[string]any{
			"tenant":    j.Tenant,
			"priority":  j.Priority.String(),
			"tasks":     j.total,
			"recovered": true,
			"attempt":   r.attempts + 1,
		})
		s.prom.recoveredJobsVec.With("requeued").Inc()
		s.enqueueRecovered(j)
	}
}

// enqueueRecovered pushes a recovered job, delaying re-admission by the
// exponential crash backoff when it has prior attempts (a poison job then
// burns its bounded attempts slowly instead of hot-looping the runners).
func (s *Server) enqueueRecovered(j *Job) {
	push := func() {
		if err := s.queue.Push(j); err != nil {
			s.finishJob(j, StateFailed, nil, "recovery re-admission failed: "+err.Error())
		}
	}
	backoff := time.Duration(0)
	if j.attempts > 0 {
		backoff = s.opts.RetryBackoff << (j.attempts - 1)
		if max := 30 * time.Second; backoff > max {
			backoff = max
		}
	}
	if backoff <= 0 {
		push()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-time.After(backoff):
			push()
		case <-s.baseCtx.Done():
		}
	}()
}

// restoreTerminal rebuilds a finished job's queryable record from the log
// and counts it under the given recovery outcome. No live collector data
// survives a restart; the job's off-load summary is empty.
func (s *Server) restoreTerminal(r *recoveredJob, state State, errMsg string, result *Result, outcome string) {
	j := s.newJob(r.id, r.spec, nil)
	s.jobs[r.id] = j
	j.settle(state, result, errMsg)
	j.announce()
	j.release()
	s.finished = append(s.finished, r.id)
	s.prom.recoveredJobsVec.With(outcome).Inc()
}

// newJob builds a queued job on a run context derived from the server's.
// The spec was validated at admission; should a stored spec's priority no
// longer parse, the job is interactive.
func (s *Server) newJob(id string, spec JobSpec, data *phylo.PatternAlignment) *Job {
	prio, _ := ParsePriority(spec.Priority)
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &Job{
		ID:        id,
		Tenant:    spec.tenant(),
		Priority:  prio,
		Spec:      spec,
		data:      data,
		events:    NewEventLog(),
		collector: &stats.OffloadCollector{},
		runCtx:    ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
		total:     spec.tasks(),
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Runtime exposes the shared runtime (tests and the benchmark harness read
// its stats).
func (s *Server) Runtime() *native.Runtime { return s.rt }

// QueueLen returns the number of jobs waiting for admission.
func (s *Server) QueueLen() int { return s.queue.Len() }

// Close stops admission, cancels queued and running jobs, waits for the
// runners, flushes the job store, and shuts the runtime down. After a Drain,
// still-queued jobs are NOT cancelled: they stay accepted-but-incomplete in
// the WAL and the next incarnation re-enqueues them — the zero-lost-jobs
// half of the drain contract.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		drained := s.draining.Load()
		for _, j := range s.queue.Close() {
			if drained {
				continue // preserved in the WAL for the next incarnation
			}
			s.finishJob(j, StateCancelled, nil, "server shutting down")
		}
		if drained {
			s.baseCancel(errDrainAbort)
		} else {
			s.baseCancel(nil) // aborts running jobs' searches
		}
		s.wg.Wait()
		if s.store != nil {
			_ = s.store.Close()
		}
		s.rt.Close()
	})
}

// Drain is the SIGTERM path: stop admitting (submissions get 503 with a
// Retry-After), let queued and running jobs finish for up to timeout, then
// abort whatever remains — their latest checkpoints are already in the WAL,
// so the abort loses at most one sweep of work — flush the log and shut
// down. On return every accepted job is either terminal or durably recorded
// as incomplete for the next incarnation to resume.
func (s *Server) Drain(timeout time.Duration) {
	s.drainRetryAfter.Store(int64(timeout/time.Second) + 1)
	s.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.queue.Len() == 0 && s.running.Load() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
}

// Draining reports whether the server is refusing admissions pending
// shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Submit validates and enqueues a job programmatically (the HTTP handler is a
// thin wrapper). It returns the accepted job or an admission error. Every
// rejected submission counts as submitted+rejected in the tenant's metrics,
// whatever the reason, so misbehaving clients are visible in /v1/metrics.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	tenant := spec.tenant()
	reject := func(code int, msg string) *admissionError {
		s.prom.submitted.With(tenant).Inc()
		s.prom.rejected.With(tenant).Inc()
		return &admissionError{code: code, msg: msg}
	}
	if _, err := ParsePriority(spec.Priority); err != nil {
		return nil, reject(http.StatusBadRequest, err.Error())
	}
	// Shed load before the expensive part of admission: a draining or
	// closing server or a full queue rejects without simulating/compressing
	// an alignment. The capacity check here is advisory (Push re-checks
	// authoritatively).
	if s.draining.Load() {
		e := reject(http.StatusServiceUnavailable, "server is draining")
		e.retryAfter = int(s.drainRetryAfter.Load())
		return nil, e
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, reject(http.StatusServiceUnavailable, "server is shutting down")
	}
	if s.queue.Len() >= s.opts.QueueCapacity {
		return nil, reject(http.StatusTooManyRequests, ErrQueueFull.Error())
	}
	if n := spec.tasks(); n > s.opts.MaxTasksPerJob {
		return nil, reject(http.StatusUnprocessableEntity,
			fmt.Sprintf("job has %d tasks, limit is %d", n, s.opts.MaxTasksPerJob))
	}
	// A simulated alignment is sized before it is built: a request of a few
	// bytes may not allocate its taxa × length cells only to be refused.
	if sim := spec.Simulate; sim != nil && sim.Taxa > 0 && sim.Length > s.opts.MaxAlignmentCells/sim.Taxa {
		cells := new(big.Int).Mul(big.NewInt(int64(sim.Taxa)), big.NewInt(int64(sim.Length)))
		return nil, reject(http.StatusUnprocessableEntity,
			fmt.Sprintf("alignment has %d cells, limit is %d", cells, s.opts.MaxAlignmentCells))
	}
	data, err := spec.buildAlignment()
	if err != nil {
		return nil, reject(http.StatusBadRequest, err.Error())
	}
	if cells := data.NumTaxa() * data.SiteLength; cells > s.opts.MaxAlignmentCells {
		return nil, reject(http.StatusUnprocessableEntity,
			fmt.Sprintf("alignment has %d cells, limit is %d", cells, s.opts.MaxAlignmentCells))
	}
	if _, err := spec.analysisOptions(); err != nil {
		return nil, reject(http.StatusBadRequest, err.Error())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &admissionError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	s.nextID++
	id := fmt.Sprintf("j-%06d", s.nextID)
	j := s.newJob(id, spec, data)
	if s.flight != nil {
		// The submission counter doubles as the flow id: unique per job,
		// stable across the trace endpoints.
		j.flightID = uint64(s.nextID)
		s.flight.Label(j.flightID, id+"/"+tenant)
		j.flightQueued = s.flight.Now()
	}
	s.jobs[id] = j
	s.mu.Unlock()

	s.prom.submitted.With(tenant).Inc()
	// Durability point: the accepted record must be on disk before the job
	// can produce any other record (a runner may pop it the instant Push
	// returns) and before the 202 goes out — an acknowledged job that a
	// crash forgets would violate the zero-lost-jobs contract. A degraded
	// WAL (disk error) does not reject the job: the server continues
	// in-memory-only and the error counter records the exposure.
	if s.store != nil {
		_ = s.store.jobAccepted(id, spec)
	}
	// The queued event goes in before Push: once the job is in the queue a
	// runner may pop it immediately, and "started" must not precede
	// "queued" in the stream.
	j.events.Append(EventQueued, map[string]any{
		"tenant":   tenant,
		"priority": j.Priority.String(),
		"tasks":    j.total,
	})
	if err := s.queue.Push(j); err != nil {
		s.prom.rejected.With(tenant).Inc()
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		j.cancel()
		if s.store != nil {
			// The accepted record is already durable; neutralize it so the
			// next replay does not resurrect a job the client saw rejected.
			s.store.jobCancelled(id)
		}
		code := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusTooManyRequests
		}
		return nil, &admissionError{code: code, msg: err.Error()}
	}
	return j, nil
}

// finishJob moves a job to a terminal state, mirrors the outcome into the
// job store, and retires it — the single path every terminal transition
// funnels through so the WAL can never miss one. The order is fixed: win the
// transition, append the record, and only then let Done() and the event
// stream say so — whoever sees the job end can rely on its record having
// been handed to the log. A job that ends without having run leaves the
// queue here.
func (s *Server) finishJob(j *Job, state State, result *Result, errMsg string) bool {
	// A runner pops a job before starting it: one still queued here never runs.
	queued := j.State() == StateQueued
	if !j.settle(state, result, errMsg) {
		return false
	}
	if s.store != nil {
		if state == StateCancelled {
			s.store.jobCancelled(j.ID)
		} else {
			s.store.jobFinished(j.ID, state, errMsg, result)
		}
	}
	j.announce()
	s.retire(j)
	if queued {
		s.leftQueue(j)
	}
	return true
}

// leftQueue ends a job's job-queued span on the flight recorder's jobs lane:
// its admission wait, from acceptance until a runner started it or it ended
// without running.
func (s *Server) leftQueue(j *Job) {
	s.flight.Span(s.flight.JobLane(), flight.KindJobQueued, j.flightID, j.flightQueued, int64(j.Priority), 0)
}

// retire accounts a job that just reached a terminal state: its tenant
// metrics are folded in, its inputs and run context are released, and the
// table of finished jobs is trimmed to MaxFinishedJobs (oldest evicted first).
func (s *Server) retire(j *Job) {
	s.metrics.jobFinished(j)
	j.release()
	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.opts.MaxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished[0] = ""
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a queued or running job; it reports whether the job existed
// and whether it was still cancellable.
func (s *Server) Cancel(id string) (j *Job, found, cancelled bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false, false
	}
	if s.queue.Remove(j) {
		// Still queued: it will never reach a runner, finish it here. Its
		// queued span ends now and no job-run span will ever exist. This is
		// also where a recovered-but-not-yet-resumed job gets cancelled, and
		// finishJob records that in the WAL so the next replay does not
		// resurrect it.
		j.cancel()
		s.finishJob(j, StateCancelled, nil, "")
		return j, true, true
	}
	if j.State().Terminal() {
		return j, true, false
	}
	// Running (or about to run): cancelling the context aborts its searches
	// at the next NNI evaluation and frees queued submitters immediately;
	// the runner records the terminal state.
	j.cancel()
	return j, true, true
}

// Metrics returns the server-wide snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	rs := s.rt.Stats()
	var durability *DurabilityMetrics
	if s.store != nil {
		var walErrors float64
		for _, n := range s.prom.walErrors.Values() {
			walErrors += n
		}
		jobs, tasks := s.prom.recoveredJobsVec.Values(), s.prom.recoveredTasksVec.Values()
		durability = &DurabilityMetrics{
			DataDir:              s.opts.DataDir,
			Draining:             s.draining.Load(),
			Degraded:             s.store.wal.isDegraded(),
			WALErrors:            int64(walErrors),
			RecoveredJobs:        int64(jobs["requeued"] + jobs["failed"]),
			RecoveredTasks:       int64(tasks["done"]),
			RecoveredCheckpoints: int64(tasks["checkpoint"]),
		}
	}
	return MetricsSnapshot{
		Durability: durability,
		Tenants:    s.metrics.snapshot(),
		Runtime: RuntimeMetrics{
			Workers:         s.rt.Workers(),
			Policy:          s.rt.Policy().String(),
			Decision:        s.rt.Decision().String(),
			TasksRun:        rs.TasksRun,
			LoopsWorkShared: rs.LoopsWorkShared,
			LoopsSerial:     rs.LoopsSerial,
			Switches:        rs.Switches,
			Evaluations:     rs.Evaluations,
		},
		QueueLen:    s.queue.Len(),
		QueueCap:    s.opts.QueueCapacity,
		JobsRunning: int(s.running.Load()),
		Latencies:   s.prom.latencies(),
	}
}

// Flight exposes the server's recorder (nil unless Options.Flight).
func (s *Server) Flight() *flight.Recorder { return s.flight }

// runner is one admission slot: it pops jobs in priority order and drives
// them to a terminal state on the shared runtime.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	if !j.start() {
		return // cancelled between Pop and here
	}
	s.leftQueue(j)
	runStart := s.flight.Now()
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.store != nil {
		s.store.jobStarted(j.ID, j.attempts+1)
	}
	j.events.Append(EventStarted, map[string]any{
		"queue_wait_ms": float64(j.queueWait()) / float64(time.Millisecond),
		"attempt":       j.attempts + 1,
	})

	finish := func(state State, result *Result, errMsg string) {
		if !s.finishJob(j, state, result, errMsg) {
			return
		}
		var outcome int64
		switch state {
		case StateFailed:
			outcome = 1
		case StateCancelled:
			outcome = 2
		}
		s.flight.Span(s.flight.JobLane(), flight.KindJobRun, j.flightID,
			runStart, int64(j.total), outcome)
	}

	opts, err := j.Spec.analysisOptions() // validated at submit; cannot fail here
	if err != nil {
		finish(StateFailed, nil, err.Error())
		return
	}
	// The per-job collector and the global off-load histograms see the same
	// event stream; the flow id keys this job's spans in the shared trace.
	opts.Sink = stats.TeeSink{j.collector, offloadSink{p: s.prom}}
	opts.FlightID = j.flightID
	opts.Observer = &jobObserver{job: j, store: s.store}

	res, err := native.RunAnalysisContext(j.runCtx, s.rt, j.data, opts)
	switch {
	case err == nil:
		finish(StateDone, ResultFromAnalysis(res), "")
	case errors.Is(err, errDrainAbort) ||
		(errors.Is(err, context.Canceled) && errors.Is(context.Cause(j.runCtx), errDrainAbort)):
		// Drain abort: deliberately NOT finished. The job stays incomplete
		// in the WAL with its checkpoints and completed tasks intact; the
		// next incarnation re-enqueues and resumes it.
		return
	case errors.Is(err, context.Canceled):
		finish(StateCancelled, nil, "")
	default:
		finish(StateFailed, nil, err.Error())
	}
}

// --- HTTP layer -----------------------------------------------------------

// admissionError carries an HTTP status through Submit; retryAfter, when
// positive, becomes a Retry-After header (seconds) on the rejection.
type admissionError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *admissionError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The in-spec size caps are only checked after decoding, so the body
	// itself must be bounded first.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		var ae *admissionError
		if errors.As(err, &ae) {
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", fmt.Sprintf("%d", ae.retryAfter))
			}
			writeError(w, ae.code, ae.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status(time.Now()))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.Tenant == tenant {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	// Ids are "j-" + zero-padded counter: shorter-first then lexicographic
	// is numeric submission order even past the six-digit padding.
	sort.Slice(jobs, func(i, k int) bool {
		a, b := jobs[i].ID, jobs[k].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	now := time.Now()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status(now)
		st.Result = nil // listings stay small; fetch the job for the result
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status(time.Now()))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, found, cancelled := s.Cancel(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !cancelled {
		// Any terminal job — done, failed, or already cancelled — conflicts:
		// DELETE is not idempotent here because the job's outcome is settled.
		writeError(w, http.StatusConflict, fmt.Sprintf("job is already %s", j.State()))
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status(time.Now()))
}

// handleEvents streams a job's progress as Server-Sent Events: the history
// first, then live events until the job reaches a terminal state or the
// client disconnects. A reconnecting client sends Last-Event-ID (standard SSE
// resumption) and the replay starts after that sequence number instead of
// from the beginning.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	afterSeq := 0
	if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
		// An unparseable id falls back to a full replay — resumption is an
		// optimization, never a reason to fail the stream.
		if n, err := strconv.Atoi(lastID); err == nil && n > 0 {
			afterSeq = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for {
		evs, next, more := j.events.After(afterSeq)
		for _, ev := range evs {
			if writeSSE(w, ev) != nil {
				return
			}
		}
		flusher.Flush()
		if more == nil {
			return // terminal event delivered, stream complete
		}
		afterSeq = next
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handlePrometheus serves the text exposition format. Unlike the trace
// endpoints it is always available: counters and gauges cost nothing when
// nobody scrapes them.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.prom.reg.WriteText(w)
}

// handleTrace serves the whole recorder as a Chrome trace (every tenant's
// spans plus the policy lane).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotImplemented, "flight recorder disabled; start the server with tracing enabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="cellmg-trace.json"`)
	w.WriteHeader(http.StatusOK)
	_ = s.flight.Snapshot().WriteChrome(w)
}

// handleJobTrace serves one job's slice of the shared trace: its queue,
// kernel, loop, sweep and lifecycle spans, plus the policy lane for context.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if s.flight == nil {
		writeError(w, http.StatusNotImplemented, "flight recorder disabled; start the server with tracing enabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+"-trace.json"))
	w.WriteHeader(http.StatusOK)
	_ = s.flight.Snapshot().Filter(j.flightID).WriteChrome(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.rt.Workers(),
		"policy":  s.rt.Policy().String(),
	})
}
