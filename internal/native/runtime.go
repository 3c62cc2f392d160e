// Package native is the Go-native counterpart of the paper's runtime system:
// a multigrain scheduler that exploits task-level and loop-level parallelism
// over a fixed pool of workers, switching between the two adaptively with the
// same MGPS policy the Cell scheduler uses.
//
// The mapping from the paper's hardware to this runtime is:
//
//   - SPEs            -> pool workers (goroutines pinned to a logical slot)
//   - MPI processes   -> Submitters (independent streams of off-loadable tasks)
//   - off-loading     -> Submitter.Offload, which runs the task body on one
//     worker while the submitting goroutine waits (EDTLP: waiting submitters
//     cost nothing, so any number of them can feed the pool)
//   - loop-level
//     parallelism     -> TaskContext.ParallelFor, which work-shares a loop
//     across the worker group assigned to the task, with the master slice
//     deliberately larger (the paper's purposeful load unbalancing)
//   - the scheduler's
//     SPE bookkeeping -> one policy.Pool over the worker slots, the type the
//     simulated Cell schedulers hold per Cell: it grants one worker per task
//     (EDTLP), a fixed group (StaticLLP), or what the MGPS controller reads
//     off this runtime's own off-load departures — ⌊workers/T⌋ workers per
//     task when few streams are active. The runtime adds only what real
//     threads need: the mutex the pool is called under and the sync.Cond
//     submitters wait on until the pool can grant them.
//
// analysis.go is the parallel analysis driver. It owns only what is native —
// a Submitter per task, OffloadContext, cancellation on the first failure,
// the flight sweep instants — around the task body, assembly and types it
// shares with the serial reference (phylo.RunTask, phylo.AssembleAnalysis).
// One optional TaskObserver on AnalysisOptions is the way to watch a run;
// the job server holds its one implementation.
package native

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellmg/internal/flight"
	"cellmg/internal/policy"
	"cellmg/internal/stats"
)

// PolicyKind selects how the runtime assigns workers to off-loaded tasks.
type PolicyKind int

const (
	// EDTLP assigns exactly one worker per task (pure task-level parallelism).
	EDTLP PolicyKind = iota
	// StaticLLP assigns a fixed-size worker group to every task.
	StaticLLP
	// MGPS adapts between EDTLP and group assignment using the paper's
	// controller.
	MGPS
)

func (p PolicyKind) String() string {
	switch p {
	case EDTLP:
		return "EDTLP"
	case StaticLLP:
		return "StaticLLP"
	case MGPS:
		return "MGPS"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// ParsePolicy maps the policy names the commands take on their -policy flag
// ("edtlp", "llp", "mgps") to a PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "edtlp":
		return EDTLP, nil
	case "llp":
		return StaticLLP, nil
	case "mgps":
		return MGPS, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want edtlp, llp or mgps)", name)
	}
}

// Options configures a Runtime.
type Options struct {
	// Workers is the pool size; it defaults to 8 (the number of SPEs on a
	// Cell) capped at GOMAXPROCS when that is smaller.
	Workers int
	// Policy selects the scheduling policy (default EDTLP).
	Policy PolicyKind
	// SPEsPerLoop is the fixed group size for StaticLLP (default 4).
	SPEsPerLoop int
	// Flight, when non-nil, records the runtime's off-load lifecycle (queue
	// waits, kernel runs, work-shared loops) and MGPS policy decisions into
	// the flight recorder. Nil disables recording at nil-check cost.
	Flight *flight.Recorder
}

// Stats is a snapshot of runtime counters.
type Stats struct {
	TasksRun        int64
	LoopsWorkShared int64
	LoopsSerial     int64
	LoopsHeavy      int64 // always zero; retained for bench/, goes when it next revises its metric list
	Switches        int   // MGPS decision changes
	Evaluations     int   // MGPS windows evaluated
	WorkerBusy      []time.Duration
}

// Runtime is the multigrain scheduler.
type Runtime struct {
	opts    Options
	workers []*worker
	flight  *flight.Recorder

	mu      sync.Mutex
	cond    *sync.Cond   // signalled when workers return to the pool
	pool    *policy.Pool // guarded by mu
	active  int          // submitters with an off-load in flight or waiting for workers
	closed  bool
	nextSub int64

	tasksRun        int64
	loopsWorkShared int64
	loopsSerial     int64
}

type worker struct {
	id   int
	jobs chan func()
	busy atomic.Int64 // nanoseconds
	wg   sync.WaitGroup
}

// New creates and starts a runtime.
func New(opts Options) *Runtime {
	if opts.Workers <= 0 {
		opts.Workers = 8
		if p := runtime.GOMAXPROCS(0); p < opts.Workers {
			opts.Workers = p
		}
	}
	if opts.SPEsPerLoop <= 0 {
		opts.SPEsPerLoop = 4
	}
	if opts.SPEsPerLoop > opts.Workers {
		opts.SPEsPerLoop = opts.Workers
	}
	r := &Runtime{opts: opts, flight: opts.Flight}
	r.cond = sync.NewCond(&r.mu)
	switch opts.Policy {
	case StaticLLP:
		r.pool = policy.NewFixedPool(opts.Workers, policy.StaticLLPDecision(opts.SPEsPerLoop))
	case MGPS:
		r.pool = policy.NewAdaptivePool(opts.Workers, policy.MGPSConfig{})
	default:
		r.pool = policy.NewFixedPool(opts.Workers, policy.Decision{SPEsPerLoop: 1})
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{id: i, jobs: make(chan func())}
		w.wg.Add(1)
		go w.run()
		r.workers = append(r.workers, w)
	}
	return r
}

func (w *worker) run() {
	defer w.wg.Done()
	for job := range w.jobs {
		start := time.Now()
		job()
		w.busy.Add(int64(time.Since(start)))
	}
}

// Close shuts the worker pool down. Outstanding Offload calls must have
// completed; calling Offload after Close returns an error.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, w := range r.workers {
		close(w.jobs)
		w.wg.Wait()
	}
}

// Workers returns the pool size.
func (r *Runtime) Workers() int { return r.opts.Workers }

// Flight returns the runtime's flight recorder (nil when tracing is off).
func (r *Runtime) Flight() *flight.Recorder { return r.flight }

// Policy returns the configured policy kind.
func (r *Runtime) Policy() PolicyKind { return r.opts.Policy }

// Decision returns the worker-assignment decision currently in force.
func (r *Runtime) Decision() policy.Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.Decision()
}

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		TasksRun:        atomic.LoadInt64(&r.tasksRun),
		LoopsWorkShared: atomic.LoadInt64(&r.loopsWorkShared),
		LoopsSerial:     atomic.LoadInt64(&r.loopsSerial),
	}
	s.Evaluations, s.Switches = r.pool.Counts()
	for _, w := range r.workers {
		s.WorkerBusy = append(s.WorkerBusy, time.Duration(w.busy.Load()))
	}
	return s
}

// Submitter is one independent stream of off-loadable tasks — the analogue of
// one MPI process on the PPE.
type Submitter struct {
	rt   *Runtime
	id   int
	sink stats.OffloadSink
	flow uint64
}

// NewSubmitter registers a new task stream.
func (r *Runtime) NewSubmitter() *Submitter {
	id := int(atomic.AddInt64(&r.nextSub, 1))
	return &Submitter{rt: r, id: id}
}

// NewSubmitterWithSink registers a task stream whose completed off-loads are
// reported to sink (queue wait, run time, granted group size). The job server
// uses this to account runtime work to individual jobs and tenants while they
// all share one pool.
func (r *Runtime) NewSubmitterWithSink(sink stats.OffloadSink) *Submitter {
	s := r.NewSubmitter()
	s.sink = sink
	return s
}

// SetFlow tags every event this submitter records in the flight recorder
// with flow id (an analysis run or server job), so a shared runtime's trace
// can be filtered down to one job's lifecycle.
func (s *Submitter) SetFlow(id uint64) { s.flow = id }

// TaskContext is passed to an off-loaded task body; it exposes the loop-level
// parallelism of the worker group assigned to the task.
//
// Work-shared loops are scheduled adaptively: the master keeps a statically
// sized inline share (the paper's purposeful load unbalancing, compensating
// for worker wake-up latency), and the remaining iterations are claimed in
// small grains from an atomic shared index by whichever worker frees up
// first. Static equal chunks assumed every iteration costs the same; the
// per-pattern likelihood loops violate that (Gamma categories and
// scaling-triggered patterns are several times dearer), which left workers
// idle at the barrier. With grain claiming, the imbalance is bounded by one
// grain instead of by the spread across whole chunks.
//
// The loop plumbing is allocation-free in steady state: the loop descriptor
// lives in the context and one persistent runner closure is shared by every
// non-master slot, so work-sharing a loop enqueues a prebuilt func per
// worker instead of allocating captures. ParallelFor calls are serial per
// task (the master issues them), which makes reusing the descriptor and
// WaitGroup safe.
type TaskContext struct {
	rt     *Runtime
	group  []int // worker slots held by this task; group[0] is the master
	master int
	flow   uint64 // flight-recorder flow id inherited from the submitter

	loopBody  func(lo, hi int) // body of the loop currently being work-shared
	loopWG    sync.WaitGroup
	loopN     int64        // trip count of the current loop
	loopGrain int64        // iterations claimed per grab
	loopNext  atomic.Int64 // next unclaimed iteration index
	runner    func()       // persistent worker-side runner
}

// Grain sizing for the adaptive loop scheduler: the shared-pool iterations
// are split into about grainsPerWorker grains per group slot (enough slack
// for expensive grains to be compensated by cheap ones) but never fewer than
// minLoopGrain iterations per grab (bounding the atomic-op overhead on the
// paper-scale 228-pattern loops). masterShareBonus is the extra fraction of
// a work-shared loop's iterations its master takes up front, to cover the
// workers' wake-up latency.
const (
	grainsPerWorker  = 4
	minLoopGrain     = 4
	masterShareBonus = 0.05
)

// initLoopRunners builds the persistent runner closure shared by the
// non-master group slots. It reads the current loop descriptor from the
// context at execution time and claims grains until the loop is exhausted.
func (tc *TaskContext) initLoopRunners() {
	tc.runner = func() {
		tc.runShared()
		tc.loopWG.Done()
	}
}

// runShared claims grains of the current loop from the shared index until
// none remain. It runs on every group slot, the master included (which joins
// after finishing its inline share).
func (tc *TaskContext) runShared() {
	n, g := tc.loopN, tc.loopGrain
	for {
		lo := tc.loopNext.Add(g) - g
		if lo >= n {
			return
		}
		hi := lo + g
		if hi > n {
			hi = n
		}
		tc.loopBody(int(lo), int(hi))
	}
}

// GroupSize returns the number of workers assigned to the task (1 when
// loop-level parallelism is off).
func (tc *TaskContext) GroupSize() int { return len(tc.group) }

// Master returns the worker slot the task body runs on — the lane its
// flight-recorder events belong to.
func (tc *TaskContext) Master() int { return tc.master }

// Offload runs fn as one off-loaded task: it blocks until the task completes,
// mirroring an MPI process waiting for its off-loaded function, while other
// submitters keep feeding the pool. The task body runs on a worker; its
// parallel loops run on the task's worker group via TaskContext.ParallelFor.
func (s *Submitter) Offload(fn func(tc *TaskContext)) error {
	return s.OffloadContext(context.Background(), fn)
}

// OffloadContext is Offload with cancellation: if ctx is cancelled while the
// submitter is still queued for workers, the call returns ctx's error without
// consuming any pool capacity. Once a worker group has been granted the body
// runs to completion — a body that should stop early must observe ctx itself
// (phylo's SearchContext does), after which the group is released as usual.
func (s *Submitter) OffloadContext(ctx context.Context, fn func(tc *TaskContext)) error {
	r := s.rt
	if err := ctx.Err(); err != nil {
		return err
	}
	// A cancellation while we sleep on the condition variable must wake us;
	// the broadcast is harmless for every other waiter (they re-check their
	// own state and go back to sleep).
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		})
		defer stop()
	}
	enqueued := time.Now()
	qStart := r.flight.Now()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("native: runtime is closed")
	}
	r.active++
	// Acquire the worker group the pool grants this stream, waiting while it
	// is too busy. The pool is asked again after every wait, so an MGPS mode
	// switch applies immediately.
	var group []int
	for {
		var ok bool
		if group, ok = r.pool.Acquire(s.id); ok {
			break
		}
		// Check before waiting as well as after: a cancellation that fired
		// between the entry check and acquiring r.mu has already issued its
		// broadcast, and sleeping now would miss it.
		if err := ctx.Err(); err != nil {
			r.active--
			r.mu.Unlock()
			return err
		}
		r.cond.Wait()
		if err := ctx.Err(); err != nil {
			r.active--
			r.mu.Unlock()
			return err
		}
		if r.closed {
			r.active--
			r.mu.Unlock()
			return fmt.Errorf("native: runtime closed while waiting for workers")
		}
	}
	r.mu.Unlock()
	granted := time.Now()
	r.flight.Span(r.flight.SubmitLane(s.id), flight.KindQueue, s.flow, qStart, int64(s.id), int64(len(group)))

	// Run the task body on the master worker.
	tc := &TaskContext{rt: r, group: group, master: group[0], flow: s.flow}
	if len(group) > 1 {
		tc.initLoopRunners()
	}
	done := make(chan struct{})
	r.workers[group[0]].jobs <- func() {
		kStart := r.flight.Now()
		fn(tc)
		r.flight.Span(r.flight.WorkerLane(group[0]), flight.KindKernel, s.flow, kStart, int64(s.id), int64(len(group)))
		close(done)
	}
	<-done
	atomic.AddInt64(&r.tasksRun, 1)

	r.mu.Lock()
	r.pool.Release(group)
	r.active--
	// Tasks currently wanting workers: everyone in flight or queued, plus the
	// stream that just finished.
	if ev, closed := r.pool.Depart(s.id, r.active+1); closed {
		lane := r.flight.PolicyLane()
		r.flight.Instant(lane, flight.KindEval, 0, int64(ev.U), int64(ev.Decision.SPEsPerLoop))
		if ev.Changed {
			llp := int64(0)
			if ev.Decision.UseLLP {
				llp = 1
			}
			r.flight.Instant(lane, flight.KindSwitch, 0, int64(ev.Decision.SPEsPerLoop), llp)
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()

	if s.sink != nil {
		s.sink.RecordOffload(stats.OffloadEvent{
			Submitter:  s.id,
			QueueWait:  granted.Sub(enqueued),
			Run:        time.Since(granted),
			Workers:    len(group),
			WorkShared: len(group) > 1,
		})
	}
	return nil
}

// ParallelFor work-shares the loop body over the task's worker group. The
// master worker (the one executing the task body) takes a slightly larger
// inline share, compensating for the latency of waking the other workers —
// the Go analogue of the paper's purposeful load unbalancing. The remaining
// iterations are claimed in small grains from an atomic shared index by
// master and workers alike, so irregular per-iteration costs self-balance
// instead of leaving workers idle behind a static chunk split. With a
// single-worker group the loop runs serially on the master.
//
// It has the signature of phylo.ParallelFor, so it can be plugged directly
// into a likelihood engine.
func (tc *TaskContext) ParallelFor(n int, body func(lo, hi int)) {
	r := tc.rt
	if n <= 0 {
		return
	}
	if len(tc.group) <= 1 || n == 1 {
		atomic.AddInt64(&r.loopsSerial, 1)
		body(0, n)
		return
	}
	workers := len(tc.group)
	// Master bonus: the master executes its share inline without a channel
	// round trip, so give it a slightly larger slice (the paper's purposeful
	// load unbalancing).
	masterShare := int(float64(n)/float64(workers)*(1+masterShareBonus)) + 1
	rest := n - masterShare
	// With workers ≥ 2 and n ≥ 2 the share is at most 0.525·n + 1 ≤ n, so rest
	// is never negative; it is 0 only for the two-iteration loop, which the
	// master runs whole.
	if rest == 0 {
		atomic.AddInt64(&r.loopsSerial, 1)
		body(0, n)
		return
	}
	atomic.AddInt64(&r.loopsWorkShared, 1)
	loopStart := r.flight.Now()

	grain := rest / (workers * grainsPerWorker)
	if grain < minLoopGrain {
		grain = minLoopGrain
	}

	// Publish the loop descriptor, then launch the persistent runner on the
	// non-master slots (the channel send orders the stores before the
	// worker's loads). Workers beyond the number of grains would find the
	// pool already drained, so don't wake them at all.
	tc.loopBody = body
	tc.loopN = int64(n)
	tc.loopGrain = int64(grain)
	tc.loopNext.Store(int64(masterShare))
	launch := (rest + grain - 1) / grain
	if launch > workers-1 {
		launch = workers - 1
	}
	tc.loopWG.Add(launch)
	for i := 1; i <= launch; i++ {
		r.workers[tc.group[i]].jobs <- tc.runner
	}
	// Master share runs inline (we are already on the master worker), then
	// the master joins the grain pool alongside the workers it woke.
	body(0, masterShare)
	tc.runShared()
	tc.loopWG.Wait()
	tc.loopBody = nil
	r.flight.Span(r.flight.WorkerLane(tc.master), flight.KindLoop, tc.flow, loopStart,
		int64(n), int64(launch+1)<<32|int64(grain))
}
