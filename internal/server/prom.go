package server

import (
	"cellmg/internal/flight"
	"cellmg/internal/stats"
)

// promMetrics is the server's Prometheus-format surface (GET /metrics): a
// flight.Registry holding admission counters per tenant, queue/runtime
// gauges, and the four latency histograms. The JSON /v1/metrics snapshot
// quotes the SAME counters and histogram instances, so the two surfaces
// always agree on what the server measured.
type promMetrics struct {
	reg *flight.Registry

	submitted *flight.CounterVec
	rejected  *flight.CounterVec
	completed *flight.CounterVec
	failed    *flight.CounterVec
	cancelled *flight.CounterVec

	walErrors         *flight.CounterVec
	recoveredJobsVec  *flight.CounterVec
	recoveredTasksVec *flight.CounterVec

	latency [numLatencies]*flight.Histogram
}

// The latency histograms, as indexes into latencyHistograms and
// promMetrics.latency.
const (
	jobQueueWait = iota
	jobRun
	offloadQueueWait
	offloadRun
	numLatencies
)

// latencyHistograms names each latency histogram once: its key in the
// /v1/metrics "latencies" map, its /metrics name and its help text.
var latencyHistograms = [numLatencies]struct{ key, name, help string }{
	jobQueueWait:     {"job_queue_wait", "cellmg_job_queue_wait_seconds", "Admission queue wait per finished job."},
	jobRun:           {"job_run", "cellmg_job_run_seconds", "Run duration per finished job."},
	offloadQueueWait: {"offload_queue_wait", "cellmg_offload_queue_wait_seconds", "Worker-group queue wait per off-loaded task."},
	offloadRun:       {"offload_run", "cellmg_offload_run_seconds", "Kernel (task body) run time per off-loaded task."},
}

func newPromMetrics(s *Server) *promMetrics {
	reg := flight.NewRegistry()
	p := &promMetrics{
		reg:       reg,
		submitted: reg.NewCounterVec("cellmg_jobs_submitted_total", "Jobs submitted, accepted or not.", "tenant"),
		rejected:  reg.NewCounterVec("cellmg_jobs_rejected_total", "Jobs rejected at admission.", "tenant"),
		completed: reg.NewCounterVec("cellmg_jobs_completed_total", "Jobs finished successfully.", "tenant"),
		failed:    reg.NewCounterVec("cellmg_jobs_failed_total", "Jobs finished in error.", "tenant"),
		cancelled: reg.NewCounterVec("cellmg_jobs_cancelled_total", "Jobs cancelled before completion.", "tenant"),
		walErrors: reg.NewCounterVec("cellmg_wal_errors_total",
			"WAL write/fsync failures; any increment means durability is degraded.", "op"),
		recoveredJobsVec: reg.NewCounterVec("cellmg_recovered_jobs_total",
			"Jobs replayed from the WAL at startup, by outcome (requeued, terminal, failed).", "outcome"),
		recoveredTasksVec: reg.NewCounterVec("cellmg_recovered_tasks_total",
			"Per-task state replayed from the WAL at startup, by kind (done, checkpoint).", "kind"),
	}
	for i, h := range latencyHistograms {
		p.latency[i] = reg.NewHistogram(h.name, h.help, flight.DefaultLatencyBuckets())
	}

	reg.NewGaugeFunc("cellmg_draining", "1 while the server is draining (refusing new jobs).",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("cellmg_wal_degraded", "1 when the WAL hit an error and durability is suspended.",
		func() float64 {
			if s.store != nil && s.store.wal.isDegraded() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("cellmg_queue_depth", "Jobs waiting for admission.",
		func() float64 { return float64(s.queue.Len()) })
	reg.NewGaugeFunc("cellmg_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.opts.QueueCapacity) })
	reg.NewGaugeFunc("cellmg_jobs_running", "Jobs currently running.",
		func() float64 { return float64(s.running.Load()) })
	reg.NewGaugeFunc("cellmg_workers", "Shared runtime worker pool size.",
		func() float64 { return float64(s.rt.Workers()) })
	reg.NewGaugeFunc("cellmg_mgps_degree", "SPEs per loop under the decision in force (1 = EDTLP).",
		func() float64 { return float64(s.rt.Decision().SPEsPerLoop) })
	reg.NewCounterFunc("cellmg_tasks_run_total", "Off-loaded tasks completed by the shared runtime.",
		func() float64 { return float64(s.rt.Stats().TasksRun) })
	reg.NewCounterFunc("cellmg_loops_workshared_total", "ParallelFor loops executed work-shared.",
		func() float64 { return float64(s.rt.Stats().LoopsWorkShared) })
	reg.NewCounterFunc("cellmg_loops_serial_total", "ParallelFor loops executed serially.",
		func() float64 { return float64(s.rt.Stats().LoopsSerial) })
	reg.NewCounterFunc("cellmg_policy_evaluations_total", "MGPS windows evaluated.",
		func() float64 { return float64(s.rt.Stats().Evaluations) })
	reg.NewCounterFunc("cellmg_policy_switches_total", "MGPS decision changes.",
		func() float64 { return float64(s.rt.Stats().Switches) })
	return p
}

// offloadSink feeds the off-load latency histograms; it is teed with each
// job's private collector so per-job accounting and the global histograms
// see the same event stream.
type offloadSink struct{ p *promMetrics }

// RecordOffload implements stats.OffloadSink.
func (o offloadSink) RecordOffload(ev stats.OffloadEvent) {
	o.p.latency[offloadQueueWait].ObserveSeconds(int64(ev.QueueWait))
	o.p.latency[offloadRun].ObserveSeconds(int64(ev.Run))
}

// LatencySummary is the JSON view of one latency histogram: count, mean and
// interpolated percentiles in milliseconds, computed from the same
// fixed-bucket histogram /metrics exposes.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func summarize(h *flight.Histogram) LatencySummary {
	const msPerS = 1e3
	return LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean() * msPerS,
		P50MS:  h.Quantile(0.50) * msPerS,
		P90MS:  h.Quantile(0.90) * msPerS,
		P99MS:  h.Quantile(0.99) * msPerS,
	}
}

// latencies builds the /v1/metrics "latencies" map.
func (p *promMetrics) latencies() map[string]LatencySummary {
	out := make(map[string]LatencySummary, numLatencies)
	for i, h := range latencyHistograms {
		out[h.key] = summarize(p.latency[i])
	}
	return out
}
