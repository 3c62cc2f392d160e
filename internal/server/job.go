package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
	"cellmg/internal/stats"
)

// Priority is a job's admission class. Lower values are served first; within
// a class the queue is FIFO.
type Priority int

const (
	// PriorityInteractive is for latency-sensitive submissions (the default).
	PriorityInteractive Priority = iota
	// PriorityBatch is for throughput work that may wait behind interactive
	// jobs.
	PriorityBatch
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority maps the wire form to a Priority; the empty string is
// interactive.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
	}
}

// SimulateSpec asks the server to synthesize the input alignment — the same
// generator cmd/raxml-go uses for demo inputs. Deterministic in Seed.
type SimulateSpec struct {
	Taxa             int     `json:"taxa"`
	Length           int     `json:"length"`
	Seed             int64   `json:"seed"`
	MeanBranchLength float64 `json:"mean_branch_length,omitempty"`
}

// SequenceSpec is one aligned sequence of an inline alignment.
type SequenceSpec struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// SearchSpec is the JSON form of phylo.SearchOptions (the seed comes from the
// job, the progress hook from the server).
type SearchSpec struct {
	SmoothingRounds int     `json:"smoothing_rounds,omitempty"`
	MaxRounds       int     `json:"max_rounds,omitempty"`
	Epsilon         float64 `json:"epsilon,omitempty"`
	// Speculation is accepted for compatibility and has no effect: results
	// were byte-identical at every width by construction, and clients and
	// stored specs that carry the field must keep decoding.
	Speculation int `json:"speculation,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: one full analysis request. Exactly
// one of Simulate or Sequences provides the alignment.
type JobSpec struct {
	// Tenant attributes the job's queueing, off-loads and kernel time in
	// /v1/metrics; empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is "interactive" (default) or "batch".
	Priority string `json:"priority,omitempty"`

	Inferences int   `json:"inferences,omitempty"`
	Bootstraps int   `json:"bootstraps,omitempty"`
	Seed       int64 `json:"seed"`
	// Gamma, when positive, enables 4-category discrete-Gamma rate
	// heterogeneity with that shape.
	Gamma  float64    `json:"gamma,omitempty"`
	Search SearchSpec `json:"search,omitempty"`

	Simulate  *SimulateSpec  `json:"simulate,omitempty"`
	Sequences []SequenceSpec `json:"sequences,omitempty"`
}

// tenant returns the tenant the job is accounted to.
func (s *JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// tasks returns the number of off-loaded tasks the job will generate.
func (s *JobSpec) tasks() int {
	inf := s.Inferences
	if inf <= 0 {
		inf = 1
	}
	return inf + s.Bootstraps
}

// buildAlignment materializes and pattern-compresses the job's input.
func (s *JobSpec) buildAlignment() (*phylo.PatternAlignment, error) {
	var aln *phylo.Alignment
	switch {
	case s.Simulate != nil && len(s.Sequences) > 0:
		return nil, fmt.Errorf("give either simulate or sequences, not both")
	case s.Simulate != nil:
		mean := s.Simulate.MeanBranchLength
		if mean <= 0 {
			mean = 0.08
		}
		var err error
		_, aln, err = phylo.Simulate(phylo.SimulateOptions{
			Taxa:             s.Simulate.Taxa,
			Length:           s.Simulate.Length,
			Seed:             s.Simulate.Seed,
			MeanBranchLength: mean,
		})
		if err != nil {
			return nil, err
		}
	case len(s.Sequences) > 0:
		aln = &phylo.Alignment{}
		for _, sq := range s.Sequences {
			aln.Names = append(aln.Names, sq.Name)
			aln.Seqs = append(aln.Seqs, []byte(sq.Seq))
		}
	default:
		return nil, fmt.Errorf("an alignment is required: set simulate or sequences")
	}
	return phylo.Compress(aln)
}

// analysisOptions converts the spec to the native driver's options. The
// server fills Sink, FlightID and Observer; everything else must be derived
// from the spec alone so that re-running the spec elsewhere reproduces the job.
func (s *JobSpec) analysisOptions() (native.AnalysisOptions, error) {
	rates := phylo.SingleRate()
	if s.Gamma > 0 {
		var err error
		rates, err = phylo.DiscreteGamma(s.Gamma, 4)
		if err != nil {
			return native.AnalysisOptions{}, err
		}
	}
	search := phylo.DefaultSearchOptions()
	if s.Search.SmoothingRounds > 0 {
		search.SmoothingRounds = s.Search.SmoothingRounds
	}
	if s.Search.MaxRounds > 0 {
		search.MaxRounds = s.Search.MaxRounds
	}
	if s.Search.Epsilon > 0 {
		search.Epsilon = s.Search.Epsilon
	}
	return native.AnalysisOptions{
		Inferences: s.Inferences,
		Bootstraps: s.Bootstraps,
		Search:     search,
		Seed:       s.Seed,
		Model:      phylo.NewJC69(),
		Rates:      rates,
	}, nil
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions are possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Result is the JSON form of a completed analysis. It is a pure function of
// the job spec: the acceptance test encodes the same native.AnalysisResult
// obtained serially and compares bytes.
type Result struct {
	BestLogLik    float64            `json:"best_log_lik"`
	BestTree      string             `json:"best_tree"`
	InferenceLogs []float64          `json:"inference_logs"`
	Replicates    []string           `json:"replicates,omitempty"`
	Support       map[string]float64 `json:"support,omitempty"`
}

// ResultFromAnalysis converts the native result to its wire form.
func ResultFromAnalysis(res *native.AnalysisResult) *Result {
	out := &Result{
		BestLogLik:    res.BestLogLik,
		InferenceLogs: res.InferenceLogs,
		Support:       res.Support,
	}
	if res.BestTree != nil {
		out.BestTree = res.BestTree.Newick()
	}
	for _, rep := range res.Replicates {
		if rep != nil {
			out.Replicates = append(out.Replicates, rep.Newick())
		}
	}
	return out
}

// Job is one accepted analysis request moving through the queue, the shared
// runtime, and into a terminal state.
type Job struct {
	ID       string
	Tenant   string
	Priority Priority
	Spec     JobSpec

	data      *phylo.PatternAlignment
	events    *EventLog
	collector *stats.OffloadCollector
	runCtx    context.Context
	cancel    func() // cancels runCtx
	done      chan struct{}

	// flightID tags the job's events in the runtime flight recorder (0 when
	// the recorder is off); flightQueued is the recorder timestamp of
	// admission, the start of the job-queued span.
	flightID     uint64
	flightQueued flight.Time

	// Recovery state, set only on jobs rebuilt from the WAL: attempts counts
	// prior incarnations, skipTasks holds completed-task outcomes to replay,
	// and resumes holds the latest encoded checkpoint per unfinished task.
	attempts  int
	skipTasks map[native.TaskID]storedTask
	resumes   map[native.TaskID][]byte

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	completed int
	total     int
	result    *Result
	errMsg    string
}

// JobStatus is the JSON snapshot served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string               `json:"id"`
	Tenant      string               `json:"tenant"`
	Priority    string               `json:"priority"`
	State       State                `json:"state"`
	SubmittedAt time.Time            `json:"submitted_at"`
	StartedAt   *time.Time           `json:"started_at,omitempty"`
	FinishedAt  *time.Time           `json:"finished_at,omitempty"`
	QueueWaitMS float64              `json:"queue_wait_ms"`
	RunMS       float64              `json:"run_ms,omitempty"`
	Completed   int                  `json:"completed_tasks"`
	Total       int                  `json:"total_tasks"`
	Error       string               `json:"error,omitempty"`
	Result      *Result              `json:"result,omitempty"`
	Offloads    stats.OffloadSummary `json:"offloads"`
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status builds a consistent snapshot.
func (j *Job) Status(now time.Time) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Priority:    j.Priority.String(),
		State:       j.state,
		SubmittedAt: j.submitted,
		Completed:   j.completed,
		Total:       j.total,
		Error:       j.errMsg,
		Result:      j.result,
		Offloads:    j.collector.Summary(),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	} else {
		st.QueueWaitMS = float64(now.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		if !j.started.IsZero() {
			st.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return st
}

// release drops what nothing reads again once the job is terminal: the
// compressed alignment, the inline sequences it was built from (the WAL keeps
// the accepted spec for as long as it needs it), and the run context's
// registration as a child of the server's base context.
func (j *Job) release() {
	j.mu.Lock()
	j.data = nil
	j.Spec.Sequences = nil
	j.mu.Unlock()
	j.cancel()
}

// runDuration returns how long the job ran (0 if it never started or has not
// finished).
func (j *Job) runDuration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// queueWait returns how long the job waited for admission (0 if never
// started).
func (j *Job) queueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		if j.finished.IsZero() {
			return 0
		}
		return j.finished.Sub(j.submitted)
	}
	return j.started.Sub(j.submitted)
}

// start moves a queued job to running; it reports false if the job was
// cancelled first.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// settle moves a running (or, for cancellation, queued) job into a terminal
// state and records its outcome. It reports false, changing nothing, if the
// job is already terminal. The caller announces the transition afterwards —
// once whatever must be durable before anyone can observe the end is.
func (j *Job) settle(state State, result *Result, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.errMsg = errMsg
	return true
}

// announce publishes a settled job's end: the terminal event, the end of the
// event stream, and Done().
func (j *Job) announce() {
	j.mu.Lock()
	state, result, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch state {
	case StateDone:
		j.events.Append(EventDone, map[string]any{"best_log_lik": result.BestLogLik})
	case StateFailed:
		j.events.Append(EventFailed, map[string]any{"error": errMsg})
	case StateCancelled:
		j.events.Append(EventCancelled, nil)
	}
	j.events.Close()
	close(j.done)
}

// jobObserver is the server's native.TaskObserver, one per run of a job: the
// single place a running analysis meets its job. It keeps the job's progress
// counts and event stream current and — when the server has a job store —
// streams completed tasks and sweep-boundary checkpoints into the WAL and
// recalls what a previous incarnation already logged.
type jobObserver struct {
	job   *Job
	store *jobStore // nil without Options.DataDir
}

// Recall replays a task the WAL holds as completed, or hands back its latest
// checkpoint. An undecodable record is not fatal: the task recomputes (from
// its checkpoint if that decodes, else from scratch).
func (o *jobObserver) Recall(task native.TaskID) (*native.TaskOutcome, *phylo.Checkpoint) {
	if done, ok := o.job.skipTasks[task]; ok {
		if tree, err := phylo.DecodeTreeBinary(done.tree); err == nil {
			return &native.TaskOutcome{Task: task, LogLik: done.logLik, Tree: tree}, nil
		}
	}
	if enc, ok := o.job.resumes[task]; ok {
		if c, err := phylo.DecodeCheckpoint(enc); err == nil {
			return nil, c
		}
	}
	return nil, nil
}

// Checkpoint appends a task's sweep-boundary checkpoint to the WAL.
func (o *jobObserver) Checkpoint(task native.TaskID, c *phylo.Checkpoint) {
	if o.store != nil {
		o.store.checkpoint(o.job.ID, task, c.AppendBinary(nil))
	}
}

// TaskDone records task completion counts, emits a progress event and logs
// the outcome of a task this run computed.
func (o *jobObserver) TaskDone(out native.TaskOutcome, completed, total int, recalled bool) {
	j := o.job
	j.mu.Lock()
	j.completed = completed
	j.mu.Unlock()
	kind := "inference"
	if out.Task.Bootstrap {
		kind = "bootstrap"
	}
	j.events.Append(EventProgress, map[string]any{
		"completed": completed,
		"total":     total,
		"kind":      kind,
		"index":     out.Task.Index,
		"log_lik":   out.LogLik,
	})
	if o.store != nil && !recalled {
		// Exact float64 bits (phylo's binary tree codec, not Newick): the
		// recovered run must reproduce the clean run byte for byte.
		o.store.taskDone(j.ID, out.Task, out.LogLik, phylo.AppendTreeBinary(nil, out.Tree))
	}
}
