package stats

import (
	"math"
	"sort"
	"sync"
	"time"
)

// OffloadEvent describes one completed off-load as seen by the native
// runtime: how long the submitter queued for a worker, how long the task body
// ran, and how many workers its loops were lent on top of its master.
// Events are the unit of the per-job / per-tenant accounting the job server
// exposes.
type OffloadEvent struct {
	// Submitter is the runtime-assigned id of the task stream.
	Submitter int
	// QueueWait is the time between the Offload call and the grant of the
	// task's master worker (zero when the pool had a free worker immediately).
	QueueWait time.Duration
	// Run is the wall-clock duration of the task body on its master worker.
	Run time.Duration
	// Workers is the most workers any loop of the task ran on, the master
	// included: 1 when no loop of it borrowed one.
	Workers int
	// WorkShared reports whether any loop of the task was work-shared.
	WorkShared bool
}

// OffloadSink receives one event per completed off-load. Implementations must
// be safe for concurrent use: the runtime calls RecordOffload from every
// submitter goroutine.
type OffloadSink interface {
	RecordOffload(OffloadEvent)
}

// OffloadSummary is an aggregated view of a stream of OffloadEvents.
type OffloadSummary struct {
	Offloads       int           `json:"offloads"`
	WorkShared     int           `json:"work_shared"`
	QueueWaitTotal time.Duration `json:"queue_wait_total_ns"`
	QueueWaitMax   time.Duration `json:"queue_wait_max_ns"`
	RunTotal       time.Duration `json:"run_total_ns"`
	WorkersGranted int           `json:"workers_granted"`
}

// QueueWaitMean returns the mean queue wait per off-load; an empty summary
// yields 0 rather than dividing by zero.
func (s OffloadSummary) QueueWaitMean() time.Duration {
	if s.Offloads == 0 {
		return 0
	}
	return s.QueueWaitTotal / time.Duration(s.Offloads)
}

// RunMean returns the mean task-body run time per off-load; an empty summary
// yields 0.
func (s OffloadSummary) RunMean() time.Duration {
	if s.Offloads == 0 {
		return 0
	}
	return s.RunTotal / time.Duration(s.Offloads)
}

// Merge adds another summary into this one.
func (s *OffloadSummary) Merge(o OffloadSummary) {
	s.Offloads += o.Offloads
	s.WorkShared += o.WorkShared
	s.QueueWaitTotal += o.QueueWaitTotal
	if o.QueueWaitMax > s.QueueWaitMax {
		s.QueueWaitMax = o.QueueWaitMax
	}
	s.RunTotal += o.RunTotal
	s.WorkersGranted += o.WorkersGranted
}

// OffloadCollector is a concurrency-safe OffloadSink that aggregates events
// into an OffloadSummary. The zero value is ready to use.
type OffloadCollector struct {
	mu  sync.Mutex
	sum OffloadSummary
}

// RecordOffload implements OffloadSink.
func (c *OffloadCollector) RecordOffload(ev OffloadEvent) {
	c.mu.Lock()
	c.sum.Offloads++
	if ev.WorkShared {
		c.sum.WorkShared++
	}
	c.sum.QueueWaitTotal += ev.QueueWait
	if ev.QueueWait > c.sum.QueueWaitMax {
		c.sum.QueueWaitMax = ev.QueueWait
	}
	c.sum.RunTotal += ev.Run
	c.sum.WorkersGranted += ev.Workers
	c.mu.Unlock()
}

// Summary returns a snapshot of the aggregated counters.
func (c *OffloadCollector) Summary() OffloadSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum
}

// TeeSink fans one event stream out to several sinks (e.g. a per-job
// collector plus a per-tenant one). Nil entries are skipped.
type TeeSink []OffloadSink

// RecordOffload implements OffloadSink.
func (t TeeSink) RecordOffload(ev OffloadEvent) {
	for _, s := range t {
		if s != nil {
			s.RecordOffload(ev)
		}
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. The input need not be sorted: a
// copy is sorted internally and xs is never mutated. An empty sample yields
// 0, a single sample yields that sample for every p, NaN entries are dropped
// (they have no order rank), and p is clamped to [0, 1].
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
