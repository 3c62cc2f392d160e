// Command benchreport runs the tier-1 hot-path benchmark set in-process and
// writes a JSON report (name, ns/op, allocs/op, bytes/op, extra metrics), so
// the performance trajectory of the likelihood kernels and the tree search is
// recorded per PR instead of living only in scrollback. CI runs it and
// uploads the file as an artifact; the repository commits the snapshot for
// the current PR (BENCH_PR<N>.json).
//
//	go run ./cmd/benchreport -tag PR10           # writes BENCH_PR10.json
//	go run ./cmd/benchreport -out some/path.json # explicit destination
//	go run ./cmd/benchreport -diff BENCH_PR9.json BENCH_PR10.json
//
// The -diff mode compares two committed reports benchmark by benchmark
// (ns/op with relative change, allocs/op when nonzero) and flags entries
// that appear in only one of them, so a PR's performance claim can be
// checked against the previous record with one command.
//
// The benchmarks — fixtures and timed loop bodies alike — come from
// internal/benchfix and are the same functions internal/phylo/bench_test.go
// registers with `go test -bench`, so this record can never silently
// measure different semantics than the test suite: the three paper kernels
// (Newview, Evaluate, Makenewz) on the 42-taxon/1167-site 42_SC-shaped
// input, the incremental dirty-path evaluation, the 50-taxon NNI search, and
// the flight-recorder overhead pairs (the same work-shared workloads with the
// recorder on vs off).
//
// Long-running benchmarks (the full NNI searches take hundreds of
// milliseconds to seconds per op) get a per-benchmark minimum iteration
// count: testing.Benchmark's default one-second budget can settle on a
// single iteration, and a one-iteration number is noise — the PR 7 record
// "measured" the traced search 24% FASTER than the untraced one that way.
// measure() re-runs testing.Benchmark until the accumulated iterations reach
// the floor and reports per-op values from the combined totals; the JSON
// records both the iteration count and the number of runs so a reader can
// judge how settled each number is. (Benchmark fixtures warm up before the
// timer themselves — see benchfix.SearchNNI — so even the first iteration is
// a steady-state measurement.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"text/tabwriter"

	"cellmg/internal/benchfix"
	"cellmg/internal/phylo"
	"cellmg/internal/server"
)

// walAppend adapts server.WALAppendBench (which needs a scratch directory) to
// the entry table; outside the testing framework the temp dir is made and
// removed here.
func walAppend() func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "cellmg-walbench-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		server.WALAppendBench(dir)(b)
	}
}

// Result is one benchmark measurement in the report. Iterations is the total
// op count behind the per-op values and Runs the number of testing.Benchmark
// invocations aggregated to reach it — low iteration counts mean a noisy
// number, which is exactly what these fields exist to make visible.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the file layout of BENCH_PR<N>.json.
type Report struct {
	Go      string   `json:"go"`
	Arch    string   `json:"arch"`
	Results []Result `json:"results"`
}

// measure runs fn under testing.Benchmark, repeating whole runs until at
// least minIters iterations accumulate (b.N itself cannot be forced from
// outside the testing package), and reports per-op values computed from the
// combined totals. minIters <= 1 keeps the plain single-run behavior the
// sub-millisecond kernels want.
func measure(name string, minIters int, fn func(b *testing.B)) Result {
	fmt.Fprintf(os.Stderr, "benchreport: running %s...\n", name)
	res := Result{Name: name}
	var totalNs int64
	var totalAllocs, totalBytes uint64
	for res.Iterations < minIters || res.Runs == 0 {
		r := testing.Benchmark(fn)
		res.Runs++
		res.Iterations += r.N
		totalNs += r.T.Nanoseconds()
		totalAllocs += r.MemAllocs
		totalBytes += r.MemBytes
		if len(r.Extra) > 0 {
			res.Extra = map[string]float64{}
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
	}
	n := res.Iterations
	res.NsPerOp = float64(totalNs) / float64(n)
	res.AllocsPerOp = int64(totalAllocs) / int64(n)
	res.BytesPerOp = int64(totalBytes) / int64(n)
	return res
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

// loadReport reads one BENCH_PR<N>.json.
func loadReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// diffReports prints a per-benchmark comparison of two reports: ns/op with
// the relative change, and allocs/op when either side is nonzero. Benchmarks
// present in only one report are listed so a renamed or dropped entry is
// visible rather than silently absent.
func diffReports(oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldByName := map[string]Result{}
	for _, r := range oldRep.Results {
		oldByName[r.Name] = r
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs/op\n")
	for _, n := range newRep.Results {
		o, ok := oldByName[n.Name]
		if !ok {
			fmt.Fprintf(w, "%s\t-\t%.0f\tnew\t%d\n", n.Name, n.NsPerOp, n.AllocsPerOp)
			continue
		}
		delete(oldByName, n.Name)
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		allocs := ""
		if o.AllocsPerOp != 0 || n.AllocsPerOp != 0 {
			allocs = fmt.Sprintf("%d -> %d", o.AllocsPerOp, n.AllocsPerOp)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%+.1f%%\t%s\n", n.Name, o.NsPerOp, n.NsPerOp, delta, allocs)
	}
	// Anything left in oldByName was dropped; keep the output order stable by
	// walking the old report, not the map.
	for _, o := range oldRep.Results {
		if _, dropped := oldByName[o.Name]; dropped {
			fmt.Fprintf(w, "%s\t%.0f\t-\tdropped\t\n", o.Name, o.NsPerOp)
		}
	}
	return w.Flush()
}

func main() {
	tag := flag.String("tag", "PR10", "report tag; defaults -out to BENCH_<tag>.json")
	out := flag.String("out", "", "output file (- for stdout); overrides -tag")
	diff := flag.Bool("diff", false, "compare two reports: benchreport -diff OLD.json NEW.json")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchreport: -diff needs exactly two report paths")
			os.Exit(2)
		}
		fatalIf(diffReports(flag.Arg(0), flag.Arg(1)))
		return
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", *tag)
	}

	gamma, err := benchfix.BenchGamma4()
	fatalIf(err)

	// searchIters is the iteration floor of the multi-hundred-millisecond
	// search benchmarks; the fast kernels keep the testing-package default
	// (their one-second budget already yields thousands of iterations).
	const searchIters = 10

	rep := Report{Go: runtime.Version(), Arch: runtime.GOARCH}
	for _, bm := range []struct {
		name     string
		minIters int
		fn       func(b *testing.B)
	}{
		{"Newview", 0, benchfix.Newview(phylo.NewJC69(), phylo.SingleRate())},
		{"NewviewGamma4", 0, benchfix.Newview(phylo.NewJC69(), gamma)},
		{"EvaluateFullSweep", 0, benchfix.EvaluateFullSweep(phylo.SingleRate())},
		{"EvaluateIncremental", 0, benchfix.EvaluateIncremental()},
		{"Makenewz", 0, benchfix.Makenewz(phylo.NewJC69(), phylo.SingleRate())},
		{"SearchNNI/incremental", searchIters, benchfix.SearchNNI()},
		// Recorder-overhead pairs (PR 7): the same workload on a native
		// runtime with the flight recorder on vs off; traced must stay
		// within a few percent of off.
		{"EvaluateFlight/traced", 0, benchfix.EvaluateFullSweepFlight(true)},
		{"EvaluateFlight/off", 0, benchfix.EvaluateFullSweepFlight(false)},
		{"SearchNNIFlight/traced", searchIters, benchfix.SearchNNIFlight(true)},
		{"SearchNNIFlight/off", searchIters, benchfix.SearchNNIFlight(false)},
		// Durability pair (PR 10): the cost of the checkpoint/WAL path a
		// crash-recoverable job pays — encoding one search checkpoint, and
		// appending one checkpoint-sized record to the fsync-batched job log.
		{"CheckpointWrite", 0, benchfix.CheckpointWrite()},
		{"WALAppend", 0, walAppend()},
	} {
		rep.Results = append(rep.Results, measure(bm.name, bm.minIters, bm.fn))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	fatalIf(err)
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	fatalIf(os.WriteFile(*out, buf, 0o644))
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(rep.Results))
}
