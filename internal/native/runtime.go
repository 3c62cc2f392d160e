// Package native is the Go-native counterpart of the paper's runtime system:
// a multigrain scheduler that exploits task-level and loop-level parallelism
// over a fixed pool of workers, switching between the two adaptively with the
// same MGPS policy the Cell scheduler uses.
//
// The mapping from the paper's hardware to this runtime is:
//
//   - SPEs            -> pool workers (goroutines pinned to a logical slot)
//   - MPI processes   -> Submitters (independent streams of off-loadable tasks)
//   - off-loading     -> two grains. Submitter.Offload runs a task body on
//     one worker, its master, while the submitting goroutine waits (EDTLP:
//     waiting submitters cost nothing, so any number of them can feed the
//     pool). Inside the body every TaskContext.ParallelFor is an off-load in
//     the paper's sense — one kernel call: it asks the pool for workers, its
//     departure enters the MGPS window, and it gives the workers back
//   - loop-level
//     parallelism     -> TaskContext.ParallelFor work-shares the loop over
//     the master and the idle workers the pool lends it for the loop's
//     duration, in static contiguous shares handed over through per-worker
//     mailboxes the lent workers spin on for a bounded time
//   - the scheduler's
//     SPE bookkeeping -> one policy.Pool over the worker slots, the type the
//     simulated Cell schedulers hold per Cell: a master per task, and per
//     loop nothing more (EDTLP), up to a fixed group (StaticLLP), or what the
//     MGPS controller reads off this runtime's own departures — ⌊workers/T⌋
//     workers per loop when few streams are active. The runtime adds only
//     what real threads need: the mutex the pool is called under and the
//     sync.Cond submitters wait on until the pool can grant them a master.
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
	// StaticLLP lets every loop borrow up to a fixed-size worker group.
	StaticLLP
	// MGPS adapts between EDTLP and loop groups using the paper's controller.
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
	// Workers is the pool size (default DefaultWorkers).
	Workers int
	// Policy selects the scheduling policy (default EDTLP).
	Policy PolicyKind
	// SPEsPerLoop is the fixed loop group size for StaticLLP, the master
	// included (default 4).
	SPEsPerLoop int
	// Flight, when non-nil, records the runtime's off-load lifecycle (queue
	// waits, kernel runs, work-shared loops) and MGPS policy decisions into
	// the flight recorder. Nil disables recording at nil-check cost.
	Flight *flight.Recorder
}

// Stats is a snapshot of runtime counters. A task's loops are counted in its
// own context and added here as it ends: they are all there by the time its
// Offload returns, and a running task's are not there yet.
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
	wg      sync.WaitGroup // the worker goroutines
	flight  *flight.Recorder
	// lends reports whether a loop can be work-shared at all: the policy can
	// decide LLP, there is a second worker to lend and a second processor to
	// run it on. Where it is false ParallelFor never touches the pool.
	lends bool

	mu      sync.Mutex
	cond    *sync.Cond   // signalled when workers return to the pool
	pool    *policy.Pool // guarded by mu
	active  int          // submitters with a task in flight or waiting for a master
	queued  int          // of those, the ones waiting
	closed  bool
	nextSub int64

	// Counters, guarded by mu. A task counts its loops in its own context and
	// adds them here as it ends, so no loop touches a shared cache line to be
	// counted.
	tasksRun        int64
	loopsWorkShared int64
	loopsSerial     int64
}

// worker is one pool slot's goroutine. Task bodies reach it through jobs; a
// share of a work-shared loop reaches it through the mailbox (loop, lo, hi),
// which it watches without sleeping for helperSpin after every share.
type worker struct {
	// jobs carries task bodies and, as a nil func, the wake-up of a parked
	// worker whose mailbox was filled. Its one slot of buffer lets that
	// wake-up be left without waiting for the worker to arrive at the receive.
	jobs chan func()
	// The mailbox: body over [lo, hi) is this worker's share of a loop of
	// task loop. The master writes body, lo and hi and then stores loop; the
	// worker loads loop, takes the three and empties the mailbox before it
	// runs them, so an idle worker refers to no loop body.
	loop   atomic.Pointer[TaskContext]
	body   func(lo, hi int)
	lo, hi int
	parked atomic.Bool  // blocked, or about to block, on jobs
	busy   atomic.Int64 // nanoseconds inside task bodies and loop shares
	_      [64]byte     // a worker's words are spun on: keep neighbours off its cache line
}

// helperSpin is how long a worker that has just run a loop share keeps
// watching its mailbox before it parks on its channel. A search issues its
// next loop within a few microseconds of the last, and handing a share to a
// parked worker costs a futex wake-up — 7 to 60 µs against 0.7 spinning
// (README, "Loop crossover": empty/parked and empty/spinning), more than the
// 5 to 15 µs loop it would be sharing — so the bound covers the serial
// stretches between loops (matrix fills, class rebuilds, an NNI move) and
// still lets a helper nobody needs sleep within a scheduler tick. spinYield is how many looks at the mailbox
// go between two calls of runtime.Gosched, where the spinning side also reads
// the clock and polls for a task body: a yield takes about 0.2 µs on the
// recording host and a look about 1.5 ns, so at one in 512 a share that
// arrives finds the helper inside a yield one time in five.
const (
	helperSpin = 100 * time.Microsecond
	spinYield  = 512
)

// DefaultWorkers is the pool size a zero Options.Workers selects: 8, the
// number of SPEs on a Cell, capped at GOMAXPROCS when that is smaller.
func DefaultWorkers() int { return min(8, runtime.GOMAXPROCS(0)) }

// New creates and starts a runtime.
func New(opts Options) *Runtime {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers()
	}
	if opts.SPEsPerLoop <= 0 {
		opts.SPEsPerLoop = 4
	}
	if opts.SPEsPerLoop > opts.Workers {
		opts.SPEsPerLoop = opts.Workers
	}
	r := &Runtime{opts: opts, flight: opts.Flight}
	r.lends = opts.Policy != EDTLP && opts.Workers > 1 && runtime.GOMAXPROCS(0) > 1
	r.cond = sync.NewCond(&r.mu)
	switch opts.Policy {
	case StaticLLP:
		r.pool = policy.NewFixedPool(opts.Workers, policy.StaticLLPDecision(opts.SPEsPerLoop))
	case MGPS:
		r.pool = policy.NewAdaptivePool(opts.Workers, policy.MGPSConfig{})
	default:
		r.pool = policy.NewFixedPool(opts.Workers, policy.Decision{SPEsPerLoop: 1})
	}
	r.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		w := &worker{jobs: make(chan func(), 1)}
		go w.run(&r.wg)
		r.workers = append(r.workers, w)
	}
	return r
}

// run is the worker's life: a loop share when the mailbox holds one, else a
// task body from jobs — looked for without blocking while the spin bound of
// the last share runs, blocked on otherwise.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	var spinUntil time.Time // zero: no share since the last park, so park at once
	for {
		spinning := !spinUntil.IsZero()
		tc := w.loop.Load()
		for look := 1; tc == nil && spinning && look < spinYield; look++ {
			tc = w.loop.Load()
		}
		if tc != nil {
			// Empty the mailbox first: once pending drops the master may fill
			// it again, and tc is no longer ours to touch.
			body, lo, hi := w.body, w.lo, w.hi
			w.body = nil
			w.loop.Store(nil)
			start := time.Now()
			body(lo, hi)
			tc.pending.Add(-1)
			end := time.Now()
			w.busy.Add(int64(end.Sub(start)))
			spinUntil = end.Add(helperSpin)
			continue
		}
		var job func()
		ok := true
		if !spinning {
			// Announce, then look once more: a master that stored a loop before
			// the announcement saw no reason to send a wake-up.
			w.parked.Store(true)
			if w.loop.Load() == nil {
				job, ok = <-w.jobs
			}
			w.parked.Store(false)
		} else {
			runtime.Gosched()
			if time.Now().After(spinUntil) {
				spinUntil = time.Time{}
			}
			select {
			case job, ok = <-w.jobs:
			default:
			}
		}
		if !ok {
			return
		}
		if job != nil {
			start := time.Now()
			job()
			w.busy.Add(int64(time.Since(start)))
		}
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
	}
	r.wg.Wait()
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
	s := Stats{TasksRun: r.tasksRun, LoopsWorkShared: r.loopsWorkShared, LoopsSerial: r.loopsSerial}
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

// TaskContext is passed to an off-loaded task body; ParallelFor is its door
// to loop-level parallelism.
//
// A task holds one worker, its master, for its whole life: the body runs on
// it. Every ParallelFor is an off-load in the paper's sense — it asks the
// pool for the idle workers the decision in force adds to a loop, hands each
// a share, returns them as the loop ends and reports the departure the MGPS
// window counts — so a lone task starts widening its loops two loops after it
// became alone, and stops as soon as a second task wants a master.
//
// Shares are static and contiguous: group slot j of g runs [j·n/g, (j+1)·n/g),
// the borrowed workers the first slots in pool order and the master the last,
// so the same loop length splits at the same indices every time and each core
// re-reads the vector halves it wrote last. (Claiming grains from a shared
// index balanced uneven iterations, but moved half of every vector between
// cores on every loop; at 5–15 µs a loop that costs more than the imbalance
// did.) The master takes the last slot because a sum taken in index order —
// the engine's Newton sums — can then start from the first share's partial
// result, one cache line, and continue over terms the master wrote itself.
//
// A borrowed worker receives its share through its mailbox, which it has been
// spinning on since its last share if that was under helperSpin ago, and is
// otherwise woken from its channel for; the master runs its own share and
// then spins on pending. Nothing in the path allocates, and after the loop
// no worker still refers to the loop body: a retained body would keep the
// task's engine alive until the worker's next share. ParallelFor calls are
// serial per task (the master issues them), which is what makes one pending
// counter per context enough.
type TaskContext struct {
	rt     *Runtime
	proc   int    // the submitter's id: the process MGPS counts
	master int    // worker slot the body runs on
	flow   uint64 // flight-recorder flow id inherited from the submitter

	lent    []int        // the loop in flight's borrowed workers; capacity Workers-1, reused
	pending atomic.Int32 // borrowed workers still inside their share

	serial, shared int64 // loops run so far, added to the runtime's counters as the task ends
	widest         int   // most workers any loop of the task ran on, the master included

	// The work-shared loops since the last flushLoopSpan, for the flight
	// recorder: when the first began, how many, their trips in total.
	spanStart            flight.Time
	spanLoops, spanTrips int64
}

// flushLoopSpan records the work-shared loops since the last flush as one
// KindLoop span on the master's lane, from the first one's start to now. A
// search issues such a loop every few microseconds — two clock reads and a
// ring slot for each was 2 to 5 % of its time and wrapped the ring twice per
// sweep — so the analysis driver flushes once per sweep and every task once
// as it ends.
func (tc *TaskContext) flushLoopSpan() {
	if tc.spanLoops == 0 {
		return
	}
	r := tc.rt
	r.flight.Span(r.flight.WorkerLane(tc.master), flight.KindLoop, tc.flow, tc.spanStart,
		tc.spanTrips, int64(tc.widest)<<32|tc.spanTrips/(tc.spanLoops*int64(tc.widest)))
	tc.spanLoops, tc.spanTrips = 0, 0
}

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
	// Acquire the master worker, waiting while every worker is taken — by
	// other tasks, or for a moment by their loops, which lend nothing further
	// while anyone waits here.
	var group []int
	for {
		var ok bool
		if group, ok = r.pool.AcquireMaster(s.id); ok {
			break
		}
		// Check before waiting as well as after: a cancellation that fired
		// between the entry check and acquiring r.mu has already issued its
		// broadcast, and sleeping now would miss it.
		err := ctx.Err()
		if err == nil {
			r.queued++
			r.cond.Wait()
			r.queued--
			if err = ctx.Err(); err == nil && r.closed {
				err = fmt.Errorf("native: runtime closed while waiting for workers")
			}
		}
		if err != nil {
			r.active--
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	granted := time.Now()
	master := group[0]
	r.flight.Span(r.flight.SubmitLane(s.id), flight.KindQueue, s.flow, qStart, int64(s.id), 1)

	// Run the task body on the master worker.
	tc := &TaskContext{rt: r, proc: s.id, master: master, flow: s.flow, widest: 1}
	if r.lends {
		tc.lent = make([]int, 0, r.opts.Workers-1)
	}
	done := make(chan struct{})
	r.workers[master].jobs <- func() {
		kStart := r.flight.Now()
		fn(tc)
		tc.flushLoopSpan()
		r.flight.Span(r.flight.WorkerLane(master), flight.KindKernel, s.flow, kStart, int64(s.id), int64(tc.widest))
		close(done)
	}
	<-done

	r.mu.Lock()
	r.pool.Release(group)
	r.active--
	r.tasksRun++
	r.loopsSerial += tc.serial
	r.loopsWorkShared += tc.shared
	// Tasks currently wanting workers: everyone in flight or queued, plus the
	// stream that just finished.
	ev, closed := r.pool.Depart(s.id, r.active+1)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.recordEvaluation(ev, closed)

	if s.sink != nil {
		s.sink.RecordOffload(stats.OffloadEvent{
			Submitter:  s.id,
			QueueWait:  granted.Sub(enqueued),
			Run:        time.Since(granted),
			Workers:    tc.widest,
			WorkShared: tc.shared > 0,
		})
	}
	return nil
}

// recordEvaluation puts a closed MGPS window on the flight recorder's policy
// lane.
func (r *Runtime) recordEvaluation(ev policy.Evaluation, closed bool) {
	if !closed || r.flight == nil {
		return
	}
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

// ParallelFor runs body over [0, n), work-shared with whatever idle workers
// the pool lends this loop: none under EDTLP, while another task waits for a
// master, or when they are all busy — the loop then runs whole on the master.
// Otherwise see TaskContext for how the shares are cut and handed over. Every
// loop long enough to be split is a departure in the MGPS window, shared or
// not.
//
// It has the signature of phylo.ParallelFor, so it can be plugged directly
// into a likelihood engine (which offers it only the loops past its
// crossover).
func (tc *TaskContext) ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	r := tc.rt
	if n == 1 || !r.lends {
		tc.serial++
		body(0, n)
		return
	}
	r.mu.Lock()
	helpers := r.pool.Borrow(tc.proc, tc.lent[:0:min(n-1, cap(tc.lent))], r.queued)
	r.mu.Unlock()
	if len(helpers) == 0 {
		tc.serial++
		body(0, n)
	} else {
		tc.shared++
		tc.shareLoop(n, body, helpers)
	}
	r.mu.Lock()
	r.pool.Release(helpers)
	ev, closed := r.pool.Depart(tc.proc, r.active)
	if r.queued > 0 && len(helpers) > 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.recordEvaluation(ev, closed)
}

// shareLoop cuts [0, n) into one contiguous share per group slot, leaves each
// helper's in its mailbox (waking the helper if it has parked), runs the
// master's and waits for the helpers to finish theirs.
func (tc *TaskContext) shareLoop(n int, body func(lo, hi int), helpers []int) {
	r := tc.rt
	g := len(helpers) + 1
	tc.widest = max(tc.widest, g)
	if r.flight != nil {
		if tc.spanLoops == 0 {
			tc.spanStart = r.flight.Now()
		}
		tc.spanLoops++
		tc.spanTrips += int64(n)
	}
	tc.pending.Store(int32(len(helpers)))
	for i, id := range helpers {
		w := r.workers[id]
		w.body, w.lo, w.hi = body, i*n/g, (i+1)*n/g
		w.loop.Store(tc)
		if w.parked.Load() {
			select {
			case w.jobs <- nil:
			default: // something is already there to wake it
			}
		}
	}
	body((g-1)*n/g, n)
	// The helpers' shares are as long as the one just run, so they are about
	// done: spin, yielding now and then in case one of them has no processor.
	for look := 1; tc.pending.Load() != 0; look++ {
		if look%spinYield == 0 {
			runtime.Gosched()
		}
	}
}
