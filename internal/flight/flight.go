package flight

import (
	"strconv"
	"sync"
	"time"
)

// Time is a flight-recorder timestamp: nanoseconds since the recorder's
// construction, read from the monotonic clock. The zero Time is the epoch.
type Time int64

// Kind classifies a recorded event. Span kinds carry a duration; instant
// kinds have Dur == 0. The A and B payloads are kind-specific packed
// integers, decoded by the exporters (see chrome.go).
type Kind uint8

const (
	// KindNone marks an unused ring slot.
	KindNone Kind = iota
	// KindQueue is a span: a submitter waiting for its master worker
	// (A = submitter ID, B = workers granted: 1).
	KindQueue
	// KindKernel is a span: an off-loaded task body running on its master
	// worker (A = submitter ID, B = workers its widest loop ran on).
	KindKernel
	// KindLoop is a span on the master's lane: the work-shared ParallelFor
	// loops of one sweep of a search, or of one task outside a search, from
	// the first one's start (A = their trips in total, B = workers<<32 |
	// mean trips per share — "grain" in the exporters; one loop's n and n/g
	// when the span holds one loop).
	KindLoop
	// KindSweep is an instant: one NNI search sweep finished
	// (A = accepted<<32 | evaluated, B = math.Float64bits(logL)).
	KindSweep
	// KindEval is an instant: an MGPS window was evaluated
	// (A = observed degree of task parallelism U, B = SPEs per loop decided).
	KindEval
	// KindSwitch is an instant: the MGPS decision changed
	// (A = SPEs per loop now in force, B = 1 if LLP else 0).
	KindSwitch
	// KindJobQueued is a span: a server job waiting in the admission queue
	// (A = priority, B = 0).
	KindJobQueued
	// KindJobRun is a span: a server job running
	// (A = task count, B = outcome: 0 done, 1 failed, 2 cancelled).
	KindJobRun
	// KindMark is a free-form instant for ad-hoc annotation (A, B caller-defined).
	KindMark

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:      "none",
	KindQueue:     "queue",
	KindKernel:    "kernel",
	KindLoop:      "parfor",
	KindSweep:     "nni-sweep",
	KindEval:      "mgps-eval",
	KindSwitch:    "mgps-switch",
	KindJobQueued: "job-queued",
	KindJobRun:    "job-run",
	KindMark:      "mark",
}

// String returns the stable exporter-facing name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size ring-buffer record. Start and Dur are nanoseconds
// relative to the recorder epoch; ID is the flow the event belongs to (an
// analysis run or a server job, 0 when unattributed); A and B are
// kind-specific payloads; Lane is the lane the event was recorded on.
type Event struct {
	Start int64
	Dur   int64
	ID    uint64
	A, B  int64
	Kind  Kind
	Lane  uint16
}

// lane is one ring buffer with its own lock. The padding keeps neighbouring
// lanes on separate cache lines so per-worker recording never false-shares.
type lane struct {
	mu  sync.Mutex
	pos uint64 // total events ever written; next slot is pos&mask
	buf []Event
	_   [24]byte
}

// Config sizes a Recorder.
type Config struct {
	// Workers is the native runtime pool size the lane layout mirrors.
	Workers int
	// LaneEvents is the ring capacity per lane; it is rounded up to a power
	// of two and defaults to 4096 (~192 KiB per lane).
	LaneEvents int
}

// Recorder is the flight recorder. A nil *Recorder is the disabled state:
// every record method is nil-safe and returns immediately, so call sites
// need no flag of their own.
type Recorder struct {
	epoch   time.Time
	mask    uint64
	workers int
	lanes   []lane
	names   []string

	labelMu sync.Mutex
	labels  map[uint64]string
}

// New creates a recorder with one lane per worker, one for the scheduling
// policy, one for server jobs, and one submit shard per worker.
func New(cfg Config) *Recorder {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.LaneEvents <= 0 {
		cfg.LaneEvents = 4096
	}
	size := uint64(1)
	for size < uint64(cfg.LaneEvents) {
		size <<= 1
	}
	n := cfg.Workers + 2 + cfg.Workers
	r := &Recorder{
		// One of the recorder's two clock reads (doc.go, "Clock discipline"): the
		// epoch anchors every timestamp; results never depend on it.
		epoch:   time.Now(),
		mask:    size - 1,
		workers: cfg.Workers,
		lanes:   make([]lane, n),
		names:   make([]string, n),
		labels:  make(map[uint64]string),
	}
	for i := range r.lanes {
		r.lanes[i].buf = make([]Event, size)
	}
	for i := 0; i < cfg.Workers; i++ {
		r.names[i] = "worker " + strconv.Itoa(i)
		r.names[cfg.Workers+2+i] = "submit " + strconv.Itoa(i)
	}
	r.names[cfg.Workers] = "policy"
	r.names[cfg.Workers+1] = "jobs"
	return r
}

// Workers returns the worker count the lane layout was built for (0 when
// disabled).
func (r *Recorder) Workers() int {
	if r == nil {
		return 0
	}
	return r.workers
}

// WorkerLane returns the lane for pool worker i.
func (r *Recorder) WorkerLane(i int) int {
	if r == nil {
		return 0
	}
	if i < 0 || i >= r.workers {
		i = 0
	}
	return i
}

// PolicyLane returns the lane MGPS evaluation/switch instants are recorded on.
func (r *Recorder) PolicyLane() int {
	if r == nil {
		return 0
	}
	return r.workers
}

// JobLane returns the lane server job lifecycle spans are recorded on.
func (r *Recorder) JobLane() int {
	if r == nil {
		return 0
	}
	return r.workers + 1
}

// SubmitLane returns the submit-shard lane for submitter sub; submitters
// hash onto the worker-count shards so concurrent streams rarely contend.
func (r *Recorder) SubmitLane(sub int) int {
	if r == nil {
		return 0
	}
	if sub < 0 {
		sub = -sub
	}
	return r.workers + 2 + sub%r.workers
}

// Now returns the current recorder timestamp (0 when disabled).
func (r *Recorder) Now() Time {
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *Recorder) now() Time {
	// The other clock read: monotonic, into traces and metrics only.
	return Time(time.Since(r.epoch))
}

// Span records a completed span on lane: it started at start (from Now) and
// ends now. No-op when the recorder is disabled.
func (r *Recorder) Span(laneIdx int, kind Kind, id uint64, start Time, a, b int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.put(laneIdx, Event{
		Start: int64(start),
		Dur:   int64(end - start),
		ID:    id,
		A:     a,
		B:     b,
		Kind:  kind,
	})
}

// Instant records a zero-duration event on lane at the current time. No-op
// when the recorder is disabled.
func (r *Recorder) Instant(laneIdx int, kind Kind, id uint64, a, b int64) {
	if r == nil {
		return
	}
	r.put(laneIdx, Event{
		Start: int64(r.now()),
		ID:    id,
		A:     a,
		B:     b,
		Kind:  kind,
	})
}

func (r *Recorder) put(laneIdx int, ev Event) {
	if laneIdx < 0 || laneIdx >= len(r.lanes) {
		laneIdx = 0
	}
	ev.Lane = uint16(laneIdx)
	l := &r.lanes[laneIdx]
	l.mu.Lock()
	l.buf[l.pos&r.mask] = ev
	l.pos++
	l.mu.Unlock()
}

// Label attaches a human-readable name to flow id (e.g. a server job ID with
// its tenant). Exporters surface it; the record path never touches it.
func (r *Recorder) Label(id uint64, label string) {
	if r == nil {
		return
	}
	r.labelMu.Lock()
	r.labels[id] = label
	r.labelMu.Unlock()
}
