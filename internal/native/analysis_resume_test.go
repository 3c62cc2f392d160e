package native

// Replicate-granular recovery: an analysis restarted with some tasks skipped
// (recorded outcomes replayed from persisted bytes) and others resumed from
// mid-search checkpoints must produce results byte-identical to the
// uninterrupted run. Per-task seeds are pure functions of (analysis seed,
// task id), so the equivalence holds regardless of which subset crashed.

import (
	"math"
	"sync"
	"testing"

	"cellmg/internal/phylo"
)

// treeBytes encodes a tree bit-exactly for comparison across runs.
func treeBytes(t *phylo.Tree) string {
	if t == nil {
		return ""
	}
	return string(phylo.AppendTreeBinary(nil, t))
}

func TestAnalysisResumeByteIdentical(t *testing.T) {
	opts := analysisOpts()
	opts.Search.MaxRounds = 6
	t.Run("jc69_3i4b", func(t *testing.T) { testAnalysisResume(t, opts, nil) })
	// The pinned analyses take the same trip: the recovery run must land on
	// the fixture's bytes, not merely on the bytes of the run before it.
	for _, spec := range goldenSpecs(t) {
		t.Run(spec.name, func(t *testing.T) { testAnalysisResume(t, spec.opts, &spec) })
	}
}

func testAnalysisResume(t *testing.T, opts AnalysisOptions, golden *goldenSpec) {
	data := testData(t)

	// Uninterrupted reference run, recording everything a job store would:
	// completed-task outcomes (round-tripped through the tree codec, exactly
	// as the WAL stores them) and every sweep-boundary checkpoint per task.
	var mu sync.Mutex
	outcomes := map[TaskID][]byte{}      // task -> encoded tree
	logliks := map[TaskID]float64{}      // task -> final logL
	checkpoints := map[TaskID][][]byte{} // task -> encoded boundaries in order

	ref := func() *AnalysisResult {
		rt := New(Options{Workers: 4, Policy: EDTLP})
		defer rt.Close()
		o := opts
		o.Observer = &fakeObserver{
			checkpoint: func(id TaskID, c *phylo.Checkpoint) {
				enc := c.AppendBinary(nil)
				mu.Lock()
				checkpoints[id] = append(checkpoints[id], enc)
				mu.Unlock()
			},
			taskDone: func(out TaskOutcome, _, _ int, recalled bool) {
				if recalled {
					t.Errorf("task %+v reported as recalled in a run that recalls nothing", out.Task)
				}
				mu.Lock()
				outcomes[out.Task] = phylo.AppendTreeBinary(nil, out.Tree)
				logliks[out.Task] = out.LogLik
				mu.Unlock()
			},
		}
		res, err := RunAnalysis(rt, data, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	total := opts.Inferences + opts.Bootstraps
	if len(outcomes) != total {
		t.Fatalf("TaskDone announced %d tasks, want %d", len(outcomes), total)
	}
	for id, cs := range checkpoints {
		if len(cs) < 1 {
			t.Fatalf("task %+v emitted no checkpoints", id)
		}
	}

	// Recovery run on a fresh runtime: inference 0 and bootstrap 1 replay as
	// completed (Recall returns their outcome), every other task resumes from
	// a mid-search checkpoint when one exists. Tasks announced as live by
	// TaskDone must be exactly the non-recalled ones.
	skip := map[TaskID]bool{
		{Bootstrap: false, Index: 0}: true,
		{Bootstrap: true, Index: 1}:  true,
	}
	announced := map[TaskID]bool{}
	rt := New(Options{Workers: 4, Policy: EDTLP})
	defer rt.Close()
	o := opts
	var lastCompleted, lastTotal int
	o.Observer = &fakeObserver{
		recall: func(id TaskID) (*TaskOutcome, *phylo.Checkpoint) {
			if skip[id] {
				tree, err := phylo.DecodeTreeBinary(outcomes[id])
				if err != nil {
					t.Errorf("task %+v: stored tree does not decode: %v", id, err)
					return nil, nil
				}
				return &TaskOutcome{Task: id, LogLik: logliks[id], Tree: tree}, nil
			}
			cs := checkpoints[id]
			c, err := phylo.DecodeCheckpoint(cs[len(cs)/2])
			if err != nil {
				t.Errorf("task %+v: stored checkpoint does not decode: %v", id, err)
				return nil, nil
			}
			return nil, c
		},
		taskDone: func(out TaskOutcome, completed, total int, recalled bool) {
			lastCompleted, lastTotal = completed, total
			if !recalled {
				announced[out.Task] = true
			}
		},
	}
	res, err := RunAnalysis(rt, data, o)
	if err != nil {
		t.Fatal(err)
	}

	if lastCompleted != total || lastTotal != total {
		t.Errorf("progress reached %d/%d, want %d/%d", lastCompleted, lastTotal, total, total)
	}
	for id := range skip {
		if announced[id] {
			t.Errorf("recalled task %+v was re-announced as live through TaskDone", id)
		}
	}
	if len(announced) != total-len(skip) {
		t.Errorf("TaskDone announced %d live tasks in the recovery run, want %d", len(announced), total-len(skip))
	}
	if golden != nil {
		checkGolden(t, *golden, "uninterrupted run with an observer", ref)
		checkGolden(t, *golden, "skip-and-resume run", res)
	}

	if math.Float64bits(res.BestLogLik) != math.Float64bits(ref.BestLogLik) {
		t.Errorf("BestLogLik %v != uninterrupted %v", res.BestLogLik, ref.BestLogLik)
	}
	for i := range ref.InferenceLogs {
		if math.Float64bits(res.InferenceLogs[i]) != math.Float64bits(ref.InferenceLogs[i]) {
			t.Errorf("inference %d logL differs from uninterrupted run", i)
		}
	}
	if treeBytes(res.BestTree) != treeBytes(ref.BestTree) {
		t.Errorf("best tree is not bit-identical to the uninterrupted run")
	}
	for i := range ref.Replicates {
		if treeBytes(res.Replicates[i]) != treeBytes(ref.Replicates[i]) {
			t.Errorf("bootstrap replicate %d tree differs from uninterrupted run", i)
		}
	}
	if len(res.Support) != len(ref.Support) {
		t.Fatalf("support map has %d entries, want %d", len(res.Support), len(ref.Support))
	}
	for k, v := range ref.Support {
		if got, ok := res.Support[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("support[%q] = %v, want %v", k, res.Support[k], v)
		}
	}
}
