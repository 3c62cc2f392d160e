// Package cellmg is a Go reproduction of "Dynamic Multigrain Parallelization
// on the Cell Broadband Engine" (Blagojevic, Nikolopoulos, Stamatakis,
// Antonopoulos; PPoPP 2007).
//
// The repository contains no importable code at the module root; the library
// lives under internal/, the executables under cmd/, runnable examples under
// examples/, and the repository's benchmark — a module of its own, declared
// by BENCHMARK.json — under bench/. cmd/experiments regenerates every table
// and figure of the paper.
//
// The reproduction has two halves. The simulation half (internal/sim,
// internal/cellsim, internal/workload, internal/sched, internal/policy)
// models the Cell and regenerates the paper's evaluation from a calibrated
// cost model. The native half (internal/phylo, internal/native) executes the
// real likelihood kernels — newview(), evaluate(), makenewz() — under the
// same EDTLP / static-LLP / MGPS policies on a goroutine worker pool, with
// per-node transition matrices and allocation-free kernel loops so the
// scheduled unit of work is arithmetic, not garbage collection. It has the
// paper's two grains and no others — one task per worker, and per-pattern
// loops work-shared through a single ParallelFor; README.md, "Verdict on
// intra-search parallelism", records why a search has no further axis. An
// analysis has one task body (phylo.RunTask) behind both drivers — the serial
// reference phylo.RunAnalysis and native.RunAnalysis, which off-loads each
// task — and one way to watch it, native.TaskObserver. Experiment
// E11 (internal/experiments) ties the halves together by timing the real
// kernels and re-running the scheduler comparison on the measured costs.
//
// On top of the native half sits the serving layer (internal/server,
// cmd/cellmg-serve): an HTTP/JSON job API whose accepted jobs all feed one
// shared runtime, so the MGPS policy adapts to the union of every tenant's
// off-loads — live traffic standing in for the paper's concurrent MPI
// processes. The request lifecycle is
//
//	client -> POST /v1/jobs -> admission -> bounded priority queue
//	       -> shared native.Runtime (one Submitter per inference/bootstrap)
//	       -> SSE progress on GET /v1/jobs/{id}/events, result on GET,
//	          cancellation via DELETE, per-tenant rollups on /v1/metrics.
//
// Jobs are deterministic under multi-tenancy (per-task seeds are splitmix64-
// derived from the job seed, never shared generators) and cancellable
// mid-search (context plumbing through RunAnalysisContext, OffloadContext,
// and SearchContext frees workers at the next NNI evaluation).
//
// Verify with:
//
//	go build ./... && go test ./...
//
// See README.md for the module layout and the kernel-cache design notes.
package cellmg
