package native

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"cellmg/internal/flight"
	"cellmg/internal/phylo"
	"cellmg/internal/stats"
)

// AnalysisOptions configures a parallel RAxML-style analysis: a number of
// distinct inferences on the original alignment plus a number of
// non-parametric bootstrap replicates, exactly the workload the paper
// schedules on the Cell.
type AnalysisOptions struct {
	Inferences int
	Bootstraps int
	Search     phylo.SearchOptions
	Seed       int64
	// Model and Rates default to JC69 with a single rate category.
	Model phylo.Model
	Rates phylo.RateCategories
	// Sink, when non-nil, receives one stats.OffloadEvent per off-loaded
	// task (queue wait, run time, granted workers) — the hook the job server
	// uses to account shared-runtime work to individual jobs.
	Sink stats.OffloadSink
	// FlightID tags this analysis's flight-recorder events (queue/kernel
	// spans, NNI sweep instants) so traces of a shared runtime can be
	// filtered per job. Only meaningful when the runtime has a recorder.
	FlightID uint64
	// Observer, when non-nil, watches the analysis task by task — progress
	// reporting and the job store's durability surface in one value.
	Observer TaskObserver
}

// The task identity, the per-task outcome and the result are phylo's: the
// serial reference and this driver run the same task body (phylo.RunTask) and
// the same assembly (phylo.AssembleAnalysis).
type (
	TaskID         = phylo.TaskID
	TaskOutcome    = phylo.TaskOutcome
	AnalysisResult = phylo.AnalysisResult
)

// TaskObserver is the one way to watch a running analysis. Every task's seed
// is derived from (Seed, task id) alone, so a task can be recalled, resumed
// or re-run in any order without perturbing any other task — which is what
// makes replicate-granular crash recovery byte-identical by construction.
type TaskObserver interface {
	// Recall is consulted once per task, in task-list order, before the task
	// is submitted. A non-nil outcome means the task already completed in a
	// previous incarnation: it is used verbatim and nothing is recomputed.
	// Otherwise a non-nil checkpoint resumes the task's search mid-way
	// (phylo.SearchOptions.Resume); nil, nil runs the task from scratch.
	Recall(TaskID) (*TaskOutcome, *phylo.Checkpoint)
	// Checkpoint receives each running task's sweep-boundary checkpoints.
	// Calls arrive concurrently from different tasks but always from the
	// emitting task's own goroutine; the *phylo.Checkpoint is engine-owned
	// and must be encoded inside the call.
	Checkpoint(TaskID, *phylo.Checkpoint)
	// TaskDone receives every finished task with the analysis's completed
	// and total task counts. Calls are serialized by the driver. recalled
	// marks an outcome that came from Recall rather than from this run: it
	// counts as progress but must not be logged a second time.
	TaskDone(out TaskOutcome, completed, total int, recalled bool)
}

// RunAnalysis executes the analysis on the runtime: every inference and every
// bootstrap replicate is an independent off-loaded task (task-level
// parallelism), and each task's likelihood loops are work-shared over the
// task's worker group (loop-level parallelism) whenever the runtime's policy
// grants it more than one worker.
//
// Each task is driven by its own Submitter, so the runtime sees the same
// picture the paper's PPE scheduler sees: as many concurrent task streams as
// there are outstanding tree searches.
func RunAnalysis(rt *Runtime, data *phylo.PatternAlignment, opts AnalysisOptions) (*AnalysisResult, error) {
	return RunAnalysisContext(context.Background(), rt, data, opts)
}

// RunAnalysisContext is RunAnalysis with cancellation. When ctx is cancelled
// — or when any task fails — the remaining tasks are cancelled promptly:
// searches abort at their next NNI evaluation and queued submitters return
// without ever occupying a worker, so the pool is free for other tenants
// within one task quantum. The first real failure (not a cancellation it
// caused) is the returned error.
//
// Results are a pure function of (data, opts): the task body is
// phylo.RunTask, whose randomness depends only on the analysis seed and the
// task's own index, so concurrent analyses interleaved on one shared runtime
// produce bit-identical results to serial runs.
func RunAnalysisContext(ctx context.Context, rt *Runtime, data *phylo.PatternAlignment, opts AnalysisOptions) (*AnalysisResult, error) {
	if opts.Model == nil {
		opts.Model = phylo.NewJC69()
	}
	if opts.Rates.Count() == 0 {
		opts.Rates = phylo.SingleRate()
	}
	popts := phylo.AnalysisOptions{
		Inferences: opts.Inferences,
		Bootstraps: opts.Bootstraps,
		Search:     opts.Search,
		Seed:       opts.Seed,
	}
	tasks := popts.Tasks()

	// A failing task cancels every other task of this analysis promptly
	// instead of letting them run to completion. The first cause sticks, so
	// afterwards it tells a real failure from an external cancellation; a
	// task that stopped because ctx was already cancelled is not a failure.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	fail := func(err error) {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			cancel(fmt.Errorf("native: task failed: %w", err))
		}
	}

	outcomes := make([]TaskOutcome, len(tasks))
	var doneMu sync.Mutex
	completed := 0
	// done stores a task's outcome and announces it, serialized.
	done := func(ti int, out TaskOutcome, recalled bool) {
		outcomes[ti] = out
		if opts.Observer == nil {
			return
		}
		doneMu.Lock()
		defer doneMu.Unlock()
		completed++
		opts.Observer.TaskDone(out, completed, len(tasks), recalled)
	}

	var wg sync.WaitGroup
	for ti, id := range tasks {
		var resume *phylo.Checkpoint
		var checkpoint func(*phylo.Checkpoint)
		if opts.Observer != nil {
			var out *TaskOutcome
			if out, resume = opts.Observer.Recall(id); out != nil {
				done(ti, *out, true)
				continue
			}
			checkpoint = func(c *phylo.Checkpoint) { opts.Observer.Checkpoint(id, c) }
		}
		sub := rt.NewSubmitterWithSink(opts.Sink)
		sub.SetFlow(opts.FlightID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail(sub.OffloadContext(ctx, func(tc *TaskContext) {
				topts := popts
				if rec := rt.Flight(); rec != nil {
					// Each sweep becomes an instant on the master's lane:
					// the search's logL trajectory and NNI accept/reject
					// counts, tagged with the analysis's flow id. The
					// recorder stamps the time; no clock is read here, so
					// the determinism contract of this file holds.
					lane := rec.WorkerLane(tc.Master())
					prev := topts.Search.Progress
					topts.Search.Progress = func(p phylo.SearchProgress) {
						tc.flushLoopSpan()
						rec.Instant(lane, flight.KindSweep, opts.FlightID,
							int64(p.NNIAccepted)<<32|int64(p.NNIEvaluated),
							int64(math.Float64bits(p.LogLikelihood)))
						if prev != nil {
							prev(p)
						}
					}
				}
				// Loop-level parallelism: the engine's pattern loops run on
				// the task's worker group.
				out, err := phylo.RunTask(ctx, data, opts.Model, opts.Rates, topts, id, tc.ParallelFor, resume, checkpoint)
				if err != nil {
					fail(err)
					return
				}
				done(ti, out, false)
			}))
		}()
	}
	wg.Wait()

	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	return phylo.AssembleAnalysis(outcomes), nil
}
