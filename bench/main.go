// Command bench is the repository's benchmark: four workloads that load the
// system end to end from this one process, a handful of end-to-end metrics
// measured with tracing off, and a per-layer budget measured from outside the
// program in a separate traced run. BENCHMARK.json at the repository root
// names every metric; README.md in this directory says why each workload and
// metric is here and which layer number should move which end-to-end number.
//
//	bash bench/run.sh --workload serve_small --seed 7 --seconds 24 --trace 0
//	go run -C bench . -workload all
//	go run -C bench . -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"cellmg/internal/stats"
)

// config is one invocation's settings; every workload reads it and nothing
// else, so a run is a pure function of (config, host).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" or "tiny" (the unit test's seconds-long sizing)
	outDir   string
	// workers is the runtime pool size and clients the number of
	// load-generating goroutines/connections: all load comes from this
	// process, so neither exceeds the hardware threads it has.
	workers int
	clients int
}

// setupRepeats is how often a run sets its workload up: set-up time is an
// end-to-end metric, and one sample of a sub-second set-up is mostly noise.
const setupRepeats = 3

// runner is one of the four benchmark workloads. setup builds the inputs
// from the seed, computes the reference outputs and runs one untimed warm-up
// unit; measure runs the timed units (tracing off) and layers the traced run.
// Both check outputs and count every failed check in the outcome.
type runner interface {
	setup(cfg config) error
	measure(cfg config, out *outcome) error
	layers(cfg config, tr *tracer, out *outcome) error
	close()
}

var workloads = map[string]func() runner{
	"batch_bootstraps": func() runner { return &analysisWorkload{name: "batch_bootstraps"} },
	"single_search":    func() runner { return &analysisWorkload{name: "single_search"} },
	"serve_small":      func() runner { return &serveWorkload{} },
	"sim_sweep":        func() runner { return &simWorkload{} },
}

var workloadOrder = []string{"batch_bootstraps", "single_search", "serve_small", "sim_sweep"}

// outcome accumulates one run's operations, failed checks and measurements.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	// values are the reported metrics; samples keeps the raw timings behind
	// a median so the report can state quartiles and the sample count.
	values  map[string]float64
	samples map[string][]float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records one failed operation with the check that failed it.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setSamples reports the q-quantile of xs under name and keeps xs for the
// report's quartiles.
func (o *outcome) setSamples(name string, xs []float64, q float64) {
	o.samples[name] = xs
	o.values[name] = stats.Percentile(xs, q)
}

// cleanups are the temp dirs and servers a run holds; they are released on
// every exit path, including the watchdog and a signal.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	runCleanups()
	os.Exit(code)
}

func main() {
	var cfg config
	var traceFlag int
	var compare bool
	var specPath, appendPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and the arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run that yields the per-layer metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "input sizing: full, or tiny for the unit test")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for reports, span files and temporary data")
	flag.StringVar(&specPath, "spec", filepath.Join("..", "BENCHMARK.json"), "path of BENCHMARK.json")
	flag.StringVar(&appendPath, "append", "", "also append this run's report to a run-set file (the input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two run-set files: bench -compare A.json B.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	spec, err := loadSpec(specPath)
	if err != nil {
		die(2, "%v", err)
	}
	if compare {
		if flag.NArg() != 2 {
			die(2, "-compare takes two run-set files")
		}
		ok, err := compareSets(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			die(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.scale != "full" && cfg.scale != "tiny" {
		die(2, "unknown -scale %q", cfg.scale)
	}
	cfg.clients = runtime.NumCPU()
	cfg.workers = min(cfg.clients, 4)

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	} else if workloads[cfg.workload] == nil {
		die(2, "unknown -workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadOrder, ", "))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		die(130, "interrupted by %v", s)
	}()

	allCorrect := true
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := runWorkload(c, spec)
		if err != nil {
			die(1, "%s: %v", name, err)
		}
		if err := rep.write(c, appendPath); err != nil {
			die(1, "%s: %v", name, err)
		}
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: failed check: %s\n", name, p)
		}
		line, err := json.Marshal(rep.resultLine())
		if err != nil {
			die(1, "%s: %v", name, err)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && rep.Correct
	}
	runCleanups()
	if !allCorrect {
		os.Exit(1)
	}
}

// runWorkload runs one workload under its watchdog and turns the outcome into
// a report holding exactly the metrics BENCHMARK.json names for this kind of
// run.
func runWorkload(cfg config, spec *benchSpec) (*report, error) {
	// Never hang: a run that takes three times its expected duration (the
	// measured seconds plus set-up and checking) is aborted by name.
	expected := time.Duration((cfg.seconds + 12) * float64(time.Second))
	watchdog := time.AfterFunc(3*expected, func() {
		die(3, "watchdog: workload %s still running after %v (3x its expected duration)", cfg.workload, 3*expected)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	out := newOutcome()
	w := workloads[cfg.workload]()
	defer func() { w.close() }()

	// Set-up is repeated and its median reported; the last one is kept.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
			w = workloads[cfg.workload]()
		}
		t0 := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.setSamples("setup_s", setups, 0.5)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := w.layers(cfg, tr, out); err != nil {
			return nil, err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.set("bench.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
		if err := tr.writeFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	} else {
		if err := w.measure(cfg, out); err != nil {
			return nil, err
		}
		out.set("peak_rss_mb", peakRSSMB())
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}

	rep := &report{
		Env:       envStamp(cfg),
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Scale:     cfg.scale,
		Trace:     cfg.trace,
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Problems:  out.problems,
		Metrics:   map[string]metricValue{},
	}
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// A layer the workload never enters has no spans and no counts: its
		// metrics read 0 on that workload.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		mv := metricValue{Value: v, Unit: d.Unit}
		if xs := out.samples[d.Name]; len(xs) > 0 {
			mv.N = len(xs)
			mv.Q1, mv.Median, mv.Q3 = stats.Percentile(xs, 0.25), stats.Percentile(xs, 0.5), stats.Percentile(xs, 0.75)
		}
		rep.Metrics[d.Name] = mv
		delete(out.values, d.Name)
	}
	// What a run measured beyond the metrics of its kind (an end-to-end run's
	// p90 and throughput) stays in the report file as a diagnostic.
	rep.Extra = out.values
	return rep, nil
}

// env is the environment stamp every report carries, so a 1-thread record
// and a 2-thread record can never be mistaken for each other.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Workers    int    `json:"runtime_workers"`
	Clients    int    `json:"load_clients"`
}

func envStamp(cfg config) env {
	e := env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Workers:    cfg.workers,
		Clients:    cfg.clients,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the SHA is known only
	// when the binary was built inside one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

// peakRSSMB reads the process's high-water resident set (VmHWM); 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
