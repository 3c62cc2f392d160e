package native

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellmg/internal/phylo"
	"cellmg/internal/stats"
)

// TestOffloadContextCancelWhileQueued: a submitter queued behind a busy pool
// must return the context error without ever running its body.
func TestOffloadContextCancelWhileQueued(t *testing.T) {
	rt := New(Options{Workers: 1})
	defer rt.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		rt.NewSubmitter().Offload(func(tc *TaskContext) {
			close(started)
			<-block
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var ran atomic.Bool
	go func() {
		errc <- rt.NewSubmitter().OffloadContext(ctx, func(tc *TaskContext) { ran.Store(true) })
	}()
	time.Sleep(20 * time.Millisecond) // let the second submitter reach the wait
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued OffloadContext did not return after cancel")
	}
	if ran.Load() {
		t.Fatal("cancelled task body ran")
	}
	close(block)
}

// TestOffloadContextAlreadyCancelled: a cancelled context is rejected before
// touching the pool.
func TestOffloadContextAlreadyCancelled(t *testing.T) {
	rt := New(Options{Workers: 1})
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.NewSubmitter().OffloadContext(ctx, func(tc *TaskContext) {
		t.Error("body ran despite cancelled context")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunAnalysisContextCancelFreesWorkers: cancelling a running analysis
// aborts its in-flight searches and returns the pool to other submitters
// within a task quantum — the property the job server's DELETE relies on.
func TestRunAnalysisContextCancelFreesWorkers(t *testing.T) {
	data := testData(t)
	rt := New(Options{Workers: 2, Policy: EDTLP})
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunAnalysisContext(ctx, rt, data, AnalysisOptions{
			Inferences: 2,
			Bootstraps: 16,
			Search:     phylo.SearchOptions{SmoothingRounds: 4, MaxRounds: 16, Epsilon: 1e-9},
			Seed:       5,
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let some searches start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("analysis did not stop after cancel")
	}

	// The pool must be usable immediately by another tenant.
	ok := make(chan struct{})
	go func() {
		rt.NewSubmitter().Offload(func(tc *TaskContext) {})
		close(ok)
	}()
	select {
	case <-ok:
	case <-time.After(2 * time.Second):
		t.Fatal("workers were not returned to the pool after cancel")
	}
}

// TestRunAnalysisFirstErrorCancelsRemaining: with a 2-taxon alignment every
// search fails; the first failure must cancel the queued tasks instead of
// letting all of them run just to fail one by one.
func TestRunAnalysisFirstErrorCancelsRemaining(t *testing.T) {
	aln := &phylo.Alignment{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte("ACGTACGT"), []byte("ACGAACGA")}}
	data, err := phylo.Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Options{Workers: 1})
	defer rt.Close()
	_, err = RunAnalysis(rt, data, AnalysisOptions{
		Inferences: 1,
		Bootstraps: 50,
		Search:     phylo.SearchOptions{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.1},
		Seed:       11,
	})
	if err == nil {
		t.Fatal("expected an error from the 2-taxon searches")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("error should be the task failure, not the cancellation it caused: %v", err)
	}
	if !strings.Contains(err.Error(), "3 taxa") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Fail-fast: the vast majority of the 51 tasks must have been cancelled
	// while queued, i.e. never run at all.
	if ran := rt.Stats().TasksRun; ran > 10 {
		t.Errorf("%d tasks ran; the first failure should have cancelled the queue", ran)
	}
}

// TestRunAnalysisProgressAndSink: the progress callback sees every completed
// task exactly once and the sink accounts one off-load per task.
func TestRunAnalysisProgressAndSink(t *testing.T) {
	data := testData(t)
	rt := New(Options{Workers: 4, Policy: MGPS})
	defer rt.Close()

	type progress struct {
		Completed, Total int
		Bootstrap        bool
		Index            int
	}
	var events []progress
	var collector stats.OffloadCollector
	opts := analysisOpts()
	opts.Observer = &fakeObserver{taskDone: func(out TaskOutcome, completed, total int, _ bool) {
		events = append(events, progress{completed, total, out.Task.Bootstrap, out.Task.Index})
	}}
	opts.Sink = &collector

	if _, err := RunAnalysis(rt, data, opts); err != nil {
		t.Fatal(err)
	}
	total := opts.Inferences + opts.Bootstraps
	if len(events) != total {
		t.Fatalf("progress events = %d, want %d", len(events), total)
	}
	seen := map[[2]int]bool{}
	for i, ev := range events {
		if ev.Completed != i+1 || ev.Total != total {
			t.Errorf("event %d: %+v", i, ev)
		}
		kind := 0
		if ev.Bootstrap {
			kind = 1
		}
		if seen[[2]int{kind, ev.Index}] {
			t.Errorf("task reported twice: %+v", ev)
		}
		seen[[2]int{kind, ev.Index}] = true
	}
	sum := collector.Summary()
	if sum.Offloads != total {
		t.Errorf("sink offloads = %d, want %d", sum.Offloads, total)
	}
	if sum.RunTotal <= 0 || sum.WorkersGranted < total {
		t.Errorf("sink summary implausible: %+v", sum)
	}
}
