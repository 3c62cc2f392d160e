package server

import (
	"sync"
	"time"

	"cellmg/internal/stats"
)

// TenantMetrics aggregates everything one tenant has done to the server:
// admission outcomes (the cellmg_jobs_*_total series of /metrics), queueing,
// and the runtime work its jobs' off-loads consumed (via the per-job stats
// sinks).
type TenantMetrics struct {
	Submitted int `json:"submitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// QueueWaitTotal sums admission waits over finished jobs.
	QueueWaitTotal time.Duration `json:"queue_wait_total_ns"`
	// Offloads aggregates the runtime-level accounting of every finished
	// job: off-load count, worker queue waits, kernel (task run) time, and
	// how often the policy granted loop-level parallelism.
	Offloads stats.OffloadSummary `json:"offloads"`
}

// RuntimeMetrics is the shared runtime's global view — the union of all
// tenants, which is exactly what the MGPS policy observes.
type RuntimeMetrics struct {
	Workers         int    `json:"workers"`
	Policy          string `json:"policy"`
	Decision        string `json:"decision"`
	TasksRun        int64  `json:"tasks_run"`
	LoopsWorkShared int64  `json:"loops_work_shared"`
	LoopsSerial     int64  `json:"loops_serial"`
	Switches        int    `json:"policy_switches"`
	Evaluations     int    `json:"policy_evaluations"`
}

// MetricsSnapshot is the body of GET /v1/metrics.
type MetricsSnapshot struct {
	Tenants     map[string]TenantMetrics `json:"tenants"`
	Runtime     RuntimeMetrics           `json:"runtime"`
	QueueLen    int                      `json:"queue_len"`
	QueueCap    int                      `json:"queue_cap"`
	JobsRunning int                      `json:"jobs_running"`
	// Latencies summarizes the four latency histograms that also back the
	// Prometheus /metrics endpoint, so the two surfaces agree by
	// construction (latencyHistograms maps each key to its metric).
	Latencies map[string]LatencySummary `json:"latencies"`
	// Durability reports the write-ahead job log's health and what the last
	// startup recovered; nil when the server runs without a data dir.
	Durability *DurabilityMetrics `json:"durability,omitempty"`
}

// DurabilityMetrics is the WAL/recovery section of /v1/metrics.
type DurabilityMetrics struct {
	DataDir string `json:"data_dir"`
	// Draining is true once SIGTERM (or Drain) stopped admission.
	Draining bool `json:"draining"`
	// Degraded is true when a WAL write or fsync failed and the server fell
	// back to in-memory operation: jobs still run, durability is suspended.
	Degraded  bool  `json:"degraded"`
	WALErrors int64 `json:"wal_errors"`
	// Recovered* count what the last startup replay found: jobs re-enqueued
	// or restored, completed tasks replayed, and checkpoints available for
	// resume.
	RecoveredJobs        int64 `json:"recovered_jobs"`
	RecoveredTasks       int64 `json:"recovered_tasks"`
	RecoveredCheckpoints int64 `json:"recovered_checkpoints"`
}

// metricsRegistry keeps the per-tenant facts the Prometheus registry has no
// series for — the summed queue wait and the off-load summary — and reads
// the five admission outcomes from the registry's counters, which count each
// outcome once.
type metricsRegistry struct {
	mu      sync.Mutex
	tenants map[string]*TenantMetrics // QueueWaitTotal and Offloads only
	prom    *promMetrics
}

func newMetricsRegistry(prom *promMetrics) *metricsRegistry {
	return &metricsRegistry{tenants: map[string]*TenantMetrics{}, prom: prom}
}

// jobFinished folds a terminal job into its tenant's totals, counts its
// outcome and observes its queue wait and run duration into the latency
// histograms.
func (m *metricsRegistry) jobFinished(j *Job) {
	wait := j.queueWait()
	sum := j.offloadSummary()
	m.mu.Lock()
	t, ok := m.tenants[j.Tenant]
	if !ok {
		t = &TenantMetrics{}
		m.tenants[j.Tenant] = t
	}
	t.QueueWaitTotal += wait
	t.Offloads.Merge(sum)
	m.mu.Unlock()

	switch j.State() {
	case StateDone:
		m.prom.completed.With(j.Tenant).Inc()
	case StateFailed:
		m.prom.failed.With(j.Tenant).Inc()
	case StateCancelled:
		m.prom.cancelled.With(j.Tenant).Inc()
	}
	m.prom.latency[jobQueueWait].ObserveSeconds(int64(wait))
	if run := j.runDuration(); run > 0 {
		// Jobs cancelled while queued never ran; only real runs are observed.
		m.prom.latency[jobRun].ObserveSeconds(int64(run))
	}
}

// snapshot builds the per-tenant section of /v1/metrics. Every tenant is
// counted submitted before any outcome, so reading the outcomes first never
// shows a tenant with more outcomes than submissions.
func (m *metricsRegistry) snapshot() map[string]TenantMetrics {
	p := m.prom
	rejected, completed, failed, cancelled := p.rejected.Values(), p.completed.Values(), p.failed.Values(), p.cancelled.Values()
	submitted := p.submitted.Values()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TenantMetrics, len(submitted))
	for name, n := range submitted {
		var t TenantMetrics
		if totals := m.tenants[name]; totals != nil {
			t = *totals
		}
		t.Submitted, t.Rejected = int(n), int(rejected[name])
		t.Completed, t.Failed, t.Cancelled = int(completed[name]), int(failed[name]), int(cancelled[name])
		out[name] = t
	}
	return out
}
