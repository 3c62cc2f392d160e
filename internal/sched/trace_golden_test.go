package sched

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"cellmg/internal/offload"
	"cellmg/internal/sim"
	"cellmg/internal/workload"
)

// traceLines runs every scheduler at {1, 3, 8, 13} bootstraps on one and two
// Cells at both optimization levels, 200 calls per bootstrap, and returns one
// line per run: its configuration, how many intervals the trace hook
// received, the FNV-64a hash of every (component, start, end, kind) in the
// order they were emitted, and the full Result.
func traceLines(t *testing.T) []string {
	cfg := workload.RAxML42SC()
	cfg.CallsPerBootstrap = 200
	var lines []string
	for _, level := range []offload.OptLevel{offload.Optimized, offload.Naive} {
		for _, cells := range []int{1, 2} {
			for _, b := range []int{1, 3, 8, 13} {
				for _, name := range []string{"ppe-only", "linux", "edtlp", "edtlp-llp(2)", "edtlp-llp(4)", "mgps"} {
					h := fnv.New64a()
					var buf []byte
					intervals := 0
					hook := func(component string, start, end sim.Time, kind string) {
						intervals++
						buf = append(append(buf[:0], component...), 0)
						buf = binary.LittleEndian.AppendUint64(buf, uint64(start))
						buf = binary.LittleEndian.AppendUint64(buf, uint64(end))
						buf = append(append(buf, kind...), 0)
						h.Write(buf)
					}
					res, err := Run(name, Options{Workload: cfg, Bootstraps: b, NumCells: cells, Level: level, Trace: hook})
					if err != nil {
						t.Fatal(err)
					}
					enc, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s b=%d cells=%d %v intervals=%d fnv64a=%016x %s",
						name, b, cells, level, intervals, h.Sum64(), enc))
				}
			}
		}
	}
	return lines
}

// TestTraceMatchesGolden holds the traced interval stream of 96 runs — every
// SPE and PPE interval, in emission order — and their Results to
// testdata/trace_golden.txt, written by this function at 1aeca8b, where the
// MPI and kernel dispatchers were still coroutines. sweep_golden.json pins
// the Results alone; this pins when each component was busy and why. A diff
// is a changed simulation — do not regenerate the file.
func TestTraceMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/trace_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := traceLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
