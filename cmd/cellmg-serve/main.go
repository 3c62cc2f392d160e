// Command cellmg-serve runs the multi-tenant analysis job server: an
// HTTP/JSON API over one shared native multigrain runtime, so that many
// independent clients' analyses are multiplexed onto the same worker pool and
// the MGPS policy adapts to their combined load — the serving-layer analogue
// of the paper's many MPI processes off-loading onto eight SPEs.
//
// Quickstart:
//
//	cellmg-serve -addr :8080 -workers 8 -policy mgps &
//
//	# submit a job (simulated alignment, 2 inferences + 4 bootstraps)
//	curl -s localhost:8080/v1/jobs -X POST -d '{
//	    "tenant": "demo", "seed": 42, "inferences": 2, "bootstraps": 4,
//	    "simulate": {"taxa": 10, "length": 500, "seed": 7}}'
//
//	curl -s localhost:8080/v1/jobs/j-000001            # poll status/result
//	curl -N localhost:8080/v1/jobs/j-000001/events     # stream progress (SSE)
//	curl -s localhost:8080/v1/metrics                  # per-tenant accounting
//	curl -s localhost:8080/metrics                     # Prometheus text format
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001  # cancel
//
// With -flight the shared runtime records a flight trace; download it as
// Chrome trace-event JSON (loadable in https://ui.perfetto.dev) with:
//
//	curl -s localhost:8080/v1/trace -o trace.json              # all tenants
//	curl -s localhost:8080/v1/jobs/j-000001/trace -o job.json  # one job's slice
//
// With -pprof 127.0.0.1:6060 the process also serves net/http/pprof on that
// address (separate from the job API), so serving-layer hot-path regressions
// can be profiled live: go tool pprof http://127.0.0.1:6060/debug/pprof/profile
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"cellmg/internal/native"
	"cellmg/internal/server"
)

// Connection limits against slow or abandoned clients: a peer gets
// readHeaderTimeout to finish its request headers, and a keep-alive connection
// is closed after idleTimeout without a request. There is no write timeout:
// /v1/jobs/{id}/events streams for as long as its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 8, "shared worker pool size (the 'SPEs')")
		policyName    = flag.String("policy", "mgps", "scheduling policy: edtlp | llp | mgps")
		loopWidth     = flag.Int("spes-per-loop", 4, "workers per loop for the llp policy")
		queueCap      = flag.Int("queue", 64, "bounded job-queue capacity")
		maxConcurrent = flag.Int("max-concurrent", 4, "jobs admitted to the runtime at once")
		maxTasks      = flag.Int("max-tasks", 256, "per-job cap on inferences+bootstraps")
		flightOn      = flag.Bool("flight", false, "enable the flight recorder (GET /v1/trace, /v1/jobs/{id}/trace)")
		pprofAddr     = flag.String("pprof", "", "listen address for net/http/pprof (e.g. 127.0.0.1:6060; empty = disabled)")
		dataDir       = flag.String("data-dir", "", "directory for the write-ahead job log; enables crash recovery (empty = in-memory only)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for jobs to finish or checkpoint before exiting")
		maxAttempts   = flag.Int("max-job-attempts", 0, "restarts before a crashed job fails terminally (0 = default 3)")
	)
	flag.Parse()

	pol, err := native.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellmg-serve: %v\n", err)
		os.Exit(1)
	}

	// The job API runs on its own mux, so the pprof handlers (registered on
	// the DefaultServeMux by the blank import) are reachable only through
	// the dedicated debug listener — keep it bound to localhost.
	if *pprofAddr != "" {
		go func() {
			log.Printf("cellmg-serve: pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("cellmg-serve: pprof server: %v", err)
			}
		}()
	}

	srv, err := server.Open(server.Options{
		Workers:        *workers,
		Policy:         pol,
		SPEsPerLoop:    *loopWidth,
		QueueCapacity:  *queueCap,
		MaxConcurrent:  *maxConcurrent,
		MaxTasksPerJob: *maxTasks,
		Flight:         *flightOn,
		DataDir:        *dataDir,
		MaxJobAttempts: *maxAttempts,
	})
	if err != nil {
		log.Fatalf("cellmg-serve: opening job store: %v", err)
	}
	if *flightOn {
		log.Printf("cellmg-serve: flight recorder on; traces at /v1/trace and /v1/jobs/{id}/trace")
	}
	if *dataDir != "" {
		d := srv.Metrics().Durability
		log.Printf("cellmg-serve: job log at %s (recovered %d jobs, %d tasks, %d checkpoints)",
			*dataDir, d.RecoveredJobs, d.RecoveredTasks, d.RecoveredCheckpoints)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	go func() {
		log.Printf("cellmg-serve: listening on %s (%d workers, %v policy, queue %d, %d concurrent jobs)",
			*addr, *workers, pol, *queueCap, *maxConcurrent)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("cellmg-serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("cellmg-serve: draining (up to %v)", *drainTimeout)
	// Drain first: new submissions get 503 + Retry-After while queued and
	// running jobs finish (or, past the timeout, are aborted with their
	// checkpoints already in the WAL). The HTTP listener stays up through the
	// drain so clients can keep polling status; it closes last.
	srv.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	log.Printf("cellmg-serve: bye")
}
