// Package flight is the runtime flight recorder: a lock-light, preallocated
// per-lane ring buffer that captures real-time spans and instants across the
// whole stack — off-load lifecycle (queue wait, kernel run) in the native
// runtime, work-shared ParallelFor loops, MGPS policy evaluations and degree
// switches, phylo search progress (NNI sweeps with their log-likelihood
// trajectory), and server job lifecycle. It is the measurement substrate the
// source paper's per-component timing breakdowns were built on, attached to
// the live system instead of the simulator.
//
// # Recording model
//
// A Recorder owns a fixed set of lanes, laid out for the native runtime: one
// lane per pool worker, one for the scheduling policy, one for server jobs,
// and a sharded set for submitter-side waiting. Each lane is a preallocated
// power-of-two ring of fixed-size Events guarded by its own mutex; writers on
// different lanes never contend, writers on the same lane are almost always
// the same goroutine (a worker records onto its own lane). When the ring
// wraps, the oldest events are overwritten and counted as dropped — recording
// never blocks on a reader and never allocates.
//
// The record path (Now, Span, Instant) is nil-safe: a disabled recorder is a
// nil *Recorder, and every record call compiles down to a nil check. With the
// recorder enabled the path is 0 allocs/op (TestRecordPathAllocs, and
// native's TestParallelForWithFlightAllocationFree for the Span that
// ParallelFor records).
// Its cost relative to a traced workload is the benchmark's
// flight.overhead_ratio (bench/, --trace 1); it was under the noise floor
// when recorded at 251e336 and 2-8% once the kernels got faster (3f937be,
// 02a9e70). Since a lone search work-shares its pattern loops — one every
// 5 to 15 µs, 15,650 per single_search unit — a span per loop read 1.02-1.05
// there and wrapped a worker's ring twice per sweep, so native records one
// KindLoop span per sweep (per task outside a search) that covers the sweep's
// work-shared loops and carries their trips; the MGPS window evaluations,
// one per Workers loop departures, are still one instant each.
//
// # Clock discipline
//
// Timestamps are nanoseconds since the recorder's construction, read from the
// monotonic clock via time.Since. Result-producing code must not read the
// wall clock (the byte-identity tests and goldens of phylo, native and sched
// are what fails when it does); the flight recorder is the sanctioned
// exception, and its two clock reads are the epoch anchor in New and the
// monotonic read in now. Callers in result-producing code (phylo, native's
// analysis driver) never read the clock themselves — they hand the recorder
// pre-packed integers and the recorder stamps the time. Timestamps flow only
// into traces and metrics, never into analysis results.
//
// # Surfaces
//
// Snapshot drains a consistent copy of every lane; Snapshot.WriteChrome
// exports Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, with one named track per lane, counter tracks for the
// MGPS degree and per-flow log-likelihood, and instants for policy switches.
// Registry is a small Prometheus text-format registry (counters, gauges and
// the package's own fixed-bucket Histogram: atomic, allocation-free to
// observe, with interpolated quantiles) the job server exposes at
// GET /metrics; the same histogram instances feed the JSON percentiles in
// /v1/metrics, so the two surfaces can never disagree. The package imports
// no other package of this module.
package flight
