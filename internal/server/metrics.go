package server

import (
	"sync"
	"time"

	"cellmg/internal/stats"
)

// TenantMetrics aggregates everything one tenant has done to the server:
// admission outcomes, queueing, and the runtime work its jobs' off-loads
// consumed (via the per-job stats sinks).
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
	// construction (see histogramNames for the key↔metric mapping).
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

// metricsRegistry owns the per-tenant counters and mirrors every admission
// outcome into the Prometheus registry, so the JSON and text surfaces count
// from the same call sites.
type metricsRegistry struct {
	mu      sync.Mutex
	tenants map[string]*TenantMetrics
	prom    *promMetrics
}

func newMetricsRegistry(prom *promMetrics) *metricsRegistry {
	return &metricsRegistry{tenants: map[string]*TenantMetrics{}, prom: prom}
}

func (m *metricsRegistry) tenant(name string) *TenantMetrics {
	t, ok := m.tenants[name]
	if !ok {
		t = &TenantMetrics{}
		m.tenants[name] = t
	}
	return t
}

func (m *metricsRegistry) jobSubmitted(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).Submitted++
	m.mu.Unlock()
	m.prom.submitted.With(tenant).Inc()
}

func (m *metricsRegistry) jobRejected(tenant string) {
	m.mu.Lock()
	m.tenant(tenant).Rejected++
	m.mu.Unlock()
	m.prom.rejected.With(tenant).Inc()
}

// jobFinished folds a terminal job into its tenant's counters and observes
// its queue wait and run duration into the latency histograms.
func (m *metricsRegistry) jobFinished(j *Job) {
	state := j.State()
	wait := j.queueWait()
	run := j.runDuration()
	sum := j.collector.Summary()
	m.mu.Lock()
	t := m.tenant(j.Tenant)
	switch state {
	case StateDone:
		t.Completed++
	case StateFailed:
		t.Failed++
	case StateCancelled:
		t.Cancelled++
	}
	t.QueueWaitTotal += wait
	t.Offloads.Merge(sum)
	m.mu.Unlock()

	switch state {
	case StateDone:
		m.prom.completed.With(j.Tenant).Inc()
	case StateFailed:
		m.prom.failed.With(j.Tenant).Inc()
	case StateCancelled:
		m.prom.cancelled.With(j.Tenant).Inc()
	}
	m.prom.jobQueueWait.ObserveSeconds(int64(wait))
	if run > 0 {
		// Jobs cancelled while queued never ran; only real runs are observed.
		m.prom.jobRun.ObserveSeconds(int64(run))
	}
}

// snapshot copies the per-tenant map.
func (m *metricsRegistry) snapshot() map[string]TenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TenantMetrics, len(m.tenants))
	for name, t := range m.tenants {
		out[name] = *t
	}
	return out
}
