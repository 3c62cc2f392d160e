//cellmg:deterministic
package native

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	// Progress, when non-nil, is invoked once per completed task (inference
	// or bootstrap). Calls are serialized by the driver, so the callback
	// needs no locking of its own.
	Progress func(AnalysisProgress)
	// Sink, when non-nil, receives one stats.OffloadEvent per off-loaded
	// task (queue wait, run time, granted workers) — the hook the job server
	// uses to account shared-runtime work to individual jobs.
	Sink stats.OffloadSink
	// FlightID tags this analysis's flight-recorder events (queue/kernel
	// spans, NNI sweep instants) so traces of a shared runtime can be
	// filtered per job. Only meaningful when the runtime has a recorder.
	FlightID uint64

	// The four hooks below are the durability surface RunAnalysisContext
	// offers the job store. Every task's seed is derived from (Seed, task id)
	// alone, so a task can be skipped, resumed or re-run in any order without
	// perturbing any other task — which is what makes replicate-granular
	// crash recovery byte-identical by construction.

	// SkipTask, when non-nil, is consulted once per task before it is
	// submitted: returning ok=true means the task already completed in a
	// previous incarnation and its recorded outcome is used verbatim —
	// nothing is recomputed. Skipped tasks still count in Progress but are
	// not re-announced through OnTaskDone.
	SkipTask func(TaskID) (TaskOutcome, bool)
	// ResumeSearch, when non-nil, may return a checkpoint for a task that was
	// mid-search when the previous incarnation stopped; the task's search
	// resumes from it (phylo.SearchOptions.Resume) instead of starting over.
	// Returning nil runs the task from scratch.
	ResumeSearch func(TaskID) *phylo.Checkpoint
	// Checkpoint, when non-nil, receives each task's sweep-boundary
	// checkpoints (phylo.SearchOptions.Checkpoint with the task identity
	// bound). Calls arrive concurrently from different tasks but always from
	// the emitting task's own goroutine; the *phylo.Checkpoint is engine-owned
	// and must be encoded inside the callback. Overrides any Checkpoint set
	// on Search.
	Checkpoint func(TaskID, *phylo.Checkpoint)
	// OnTaskDone, when non-nil, is invoked once per task completed in THIS
	// run (skipped tasks are not re-announced), serialized with Progress.
	// The job store appends the outcome to its log so the next incarnation
	// can SkipTask it.
	OnTaskDone func(TaskOutcome)
}

// TaskID identifies one task of an analysis: inference i or bootstrap
// replicate j. The zero Index is valid; the pair is stable across runs
// because tasks are indexed, not ordered by completion.
type TaskID struct {
	Bootstrap bool
	Index     int
}

// TaskOutcome is one task's completed result, the unit of replicate-granular
// recovery. Tree is the search's final tree with exact branch-length bits
// (persist it with phylo.AppendTreeBinary, never Newick, to keep recovery
// byte-identical).
type TaskOutcome struct {
	Task   TaskID
	LogLik float64
	Tree   *phylo.Tree
}

// AnalysisProgress is a snapshot handed to AnalysisOptions.Progress after a
// task completes.
type AnalysisProgress struct {
	// Completed counts finished tasks; Total is Inferences+Bootstraps.
	Completed int
	Total     int
	// Bootstrap and Index identify the task that just finished.
	Bootstrap bool
	Index     int
	// LogLik is the task's final log-likelihood.
	LogLik float64
}

// AnalysisResult mirrors phylo.AnalysisResult; the parallel driver must
// produce the same content as the serial reference.
type AnalysisResult struct {
	BestTree      *phylo.Tree
	BestLogLik    float64
	InferenceLogs []float64
	Replicates    []*phylo.Tree
	Support       map[string]float64
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
// Results are a pure function of (data, opts): every task's randomness is
// derived with phylo.DeriveSeed from the analysis seed and the task's own
// index, so concurrent analyses interleaved on one shared runtime produce
// bit-identical results to serial runs.
func RunAnalysisContext(ctx context.Context, rt *Runtime, data *phylo.PatternAlignment, opts AnalysisOptions) (*AnalysisResult, error) {
	if opts.Inferences <= 0 {
		opts.Inferences = 1
	}
	model := opts.Model
	if model == nil {
		model = phylo.NewJC69()
	}
	rates := opts.Rates
	if rates.Count() == 0 {
		rates = phylo.SingleRate()
	}

	type job struct {
		bootstrap bool
		index     int
	}
	type outcome struct {
		job    job
		tree   *phylo.Tree
		loglik float64
		err    error
	}

	var jobs []job
	for i := 0; i < opts.Inferences; i++ {
		jobs = append(jobs, job{bootstrap: false, index: i})
	}
	for b := 0; b < opts.Bootstraps; b++ {
		jobs = append(jobs, job{bootstrap: true, index: b})
	}

	// A failing task cancels every other task of this analysis promptly
	// instead of letting them run to completion; the cause distinguishes a
	// real failure from an external cancellation.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel(err)
		})
	}

	var progressMu sync.Mutex
	completed := 0
	// report serializes the completion-side hooks: Progress counts every
	// finished task (skipped or live), OnTaskDone announces only live ones —
	// a recovered run must not re-log outcomes the store already has.
	report := func(j job, loglik float64, tree *phylo.Tree, skipped bool) {
		if opts.Progress == nil && opts.OnTaskDone == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		completed++
		if opts.Progress != nil {
			opts.Progress(AnalysisProgress{
				Completed: completed,
				Total:     len(jobs),
				Bootstrap: j.bootstrap,
				Index:     j.index,
				LogLik:    loglik,
			})
		}
		if !skipped && opts.OnTaskDone != nil {
			opts.OnTaskDone(TaskOutcome{
				Task:   TaskID{Bootstrap: j.bootstrap, Index: j.index},
				LogLik: loglik,
				Tree:   tree,
			})
		}
	}

	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for ji, j := range jobs {
		ji, j := ji, j
		if opts.SkipTask != nil {
			if out, ok := opts.SkipTask(TaskID{Bootstrap: j.bootstrap, Index: j.index}); ok {
				results[ji] = outcome{job: j, tree: out.Tree, loglik: out.LogLik}
				report(j, out.LogLik, out.Tree, true)
				continue
			}
		}
		var sub *Submitter
		if opts.Sink != nil {
			sub = rt.NewSubmitterWithSink(opts.Sink)
		} else {
			sub = rt.NewSubmitter()
		}
		sub.SetFlow(opts.FlightID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sub.OffloadContext(ctx, func(tc *TaskContext) {
				taskData := data
				var seed int64
				if j.bootstrap {
					// The replicate's resample is a pure function of
					// (analysis seed, replicate index) — no generator is
					// shared across tasks, so completion order is irrelevant.
					wrng := rand.New(rand.NewSource(phylo.DeriveSeed(opts.Seed, phylo.SeedStreamBootstrapWeights, j.index)))
					var werr error
					taskData, werr = data.WithWeights(phylo.BootstrapWeights(data, wrng))
					if werr != nil {
						results[ji] = outcome{job: j, err: werr}
						fail(werr)
						return
					}
					seed = phylo.DeriveSeed(opts.Seed, phylo.SeedStreamBootstrapSearch, j.index)
				} else {
					seed = phylo.DeriveSeed(opts.Seed, phylo.SeedStreamInference, j.index)
				}
				eng, err := phylo.NewEngine(taskData, model, rates)
				if err != nil {
					results[ji] = outcome{job: j, err: err}
					fail(err)
					return
				}
				// Loop-level parallelism: the engine's pattern loops run on
				// the task's worker group.
				eng.SetParallel(tc.ParallelFor)
				so := opts.Search
				so.Seed = seed
				id := TaskID{Bootstrap: j.bootstrap, Index: j.index}
				if opts.Checkpoint != nil {
					so.Checkpoint = func(c *phylo.Checkpoint) { opts.Checkpoint(id, c) }
				}
				if opts.ResumeSearch != nil {
					so.Resume = opts.ResumeSearch(id)
				}
				if rec := rt.Flight(); rec != nil {
					// Each sweep becomes an instant on the master's lane:
					// the search's logL trajectory and NNI accept/reject
					// counts, tagged with the analysis's flow id. The
					// recorder stamps the time; no clock is read here, so
					// the determinism contract of this file holds.
					lane := rec.WorkerLane(tc.Master())
					prev := so.Progress
					so.Progress = func(p phylo.SearchProgress) {
						rec.Instant(lane, flight.KindSweep, opts.FlightID,
							int64(p.NNIAccepted)<<32|int64(p.NNIEvaluated),
							int64(math.Float64bits(p.LogLikelihood)))
						if prev != nil {
							prev(p)
						}
					}
				}
				sr, err := eng.SearchContext(ctx, so)
				if err != nil {
					results[ji] = outcome{job: j, err: err}
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						fail(err)
					}
					return
				}
				results[ji] = outcome{job: j, tree: sr.Tree, loglik: sr.LogLikelihood}
				report(j, sr.LogLikelihood, sr.Tree, false)
			})
			if err != nil && results[ji].err == nil {
				results[ji] = outcome{job: j, err: err}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, fmt.Errorf("native: task failed: %w", firstErr)
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}

	res := &AnalysisResult{BestLogLik: math.Inf(-1)}
	res.InferenceLogs = make([]float64, opts.Inferences)
	res.Replicates = make([]*phylo.Tree, opts.Bootstraps)
	for _, out := range results {
		if out.err != nil {
			return nil, fmt.Errorf("native: task failed: %w", out.err)
		}
		if out.job.bootstrap {
			res.Replicates[out.job.index] = out.tree
			continue
		}
		res.InferenceLogs[out.job.index] = out.loglik
		if out.loglik > res.BestLogLik {
			res.BestLogLik = out.loglik
			res.BestTree = out.tree
		}
	}
	if res.BestTree != nil && len(res.Replicates) > 0 {
		res.Support = phylo.SupportValues(res.BestTree, res.Replicates)
	}
	return res, nil
}
