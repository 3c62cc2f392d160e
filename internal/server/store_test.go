package server

// Job-store tests: record semantics over the WAL — replay folding, latest-
// checkpoint-wins, task_done subsuming checkpoints, terminal states, and
// compaction keeping only what the next incarnation needs.

import (
	"bytes"
	"testing"

	"cellmg/internal/native"
)

func openTestStore(t *testing.T, dir string) (*jobStore, map[string]*recoveredJob) {
	t.Helper()
	st, jobs, err := openJobStore(walOptions{dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st, jobs
}

func TestJobStoreReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, jobs := openTestStore(t, dir)
	if len(jobs) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(jobs))
	}

	specA := smallSpec(1)
	specB := smallSpec(2)
	specC := smallSpec(3)
	taskI0 := native.TaskID{Bootstrap: false, Index: 0}
	taskB0 := native.TaskID{Bootstrap: true, Index: 0}

	// Job A: finished — must not survive compaction.
	if err := st.jobAccepted("j-000001", specA); err != nil {
		t.Fatal(err)
	}
	st.jobStarted("j-000001", 1)
	st.jobFinished("j-000001", StateDone, "", &Result{BestLogLik: -1.5, BestTree: "(a,b);"})

	// Job B: cancelled — must not survive either.
	if err := st.jobAccepted("j-000002", specB); err != nil {
		t.Fatal(err)
	}
	st.jobCancelled("j-000002")

	// Job C: incomplete — one completed task, and two checkpoints on a second
	// task (latest must win), plus a checkpoint on the first task that the
	// completion subsumes.
	if err := st.jobAccepted("j-000003", specC); err != nil {
		t.Fatal(err)
	}
	st.jobStarted("j-000003", 2)
	st.checkpoint("j-000003", taskI0, []byte("ckpt-i0"))
	st.taskDone("j-000003", taskI0, -42.5, []byte("tree-i0"))
	st.checkpoint("j-000003", taskB0, []byte("ckpt-b0-old"))
	st.checkpoint("j-000003", taskB0, []byte("ckpt-b0-new"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(jobs map[string]*recoveredJob) {
		t.Helper()
		a, b, c := jobs["j-000001"], jobs["j-000002"], jobs["j-000003"]
		if a == nil || a.state != StateDone || a.result == nil || a.result.BestTree != "(a,b);" {
			t.Fatalf("job A replayed wrong: %+v", a)
		}
		if b == nil || b.state != StateCancelled {
			t.Fatalf("job B replayed wrong: %+v", b)
		}
		if c == nil || c.incomplete() != true || c.attempts != 2 {
			t.Fatalf("job C replayed wrong: %+v", c)
		}
		done, ok := c.tasks[native.TaskID{Bootstrap: false, Index: 0}]
		if !ok || done.logLik != -42.5 || !bytes.Equal(done.tree, []byte("tree-i0")) {
			t.Fatalf("job C task_done replayed wrong: %+v", done)
		}
		if _, ok := c.ckpts[native.TaskID{Bootstrap: false, Index: 0}]; ok {
			t.Fatal("completed task's checkpoint was not subsumed")
		}
		if got := c.ckpts[native.TaskID{Bootstrap: true, Index: 0}]; !bytes.Equal(got, []byte("ckpt-b0-new")) {
			t.Fatalf("latest checkpoint did not win: %q", got)
		}
		if c.spec.Seed != specC.Seed {
			t.Fatalf("job C spec seed %d, want %d", c.spec.Seed, specC.Seed)
		}
	}

	st2, jobs := openTestStore(t, dir)
	check(jobs)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// The second open compacted: only job C's records survive, so a third
	// open must see C incomplete but A and B gone (their retention is the
	// server's in-memory table, not the log).
	st3, jobs3 := openTestStore(t, dir)
	defer st3.Close()
	if len(jobs3) != 1 {
		t.Fatalf("after compaction %d jobs survive, want 1", len(jobs3))
	}
	c := jobs3["j-000003"]
	if c == nil || !c.incomplete() || c.attempts != 2 {
		t.Fatalf("job C lost by compaction: %+v", c)
	}
	if got := c.ckpts[native.TaskID{Bootstrap: true, Index: 0}]; !bytes.Equal(got, []byte("ckpt-b0-new")) {
		t.Fatal("compaction dropped the live checkpoint")
	}
	if _, ok := c.tasks[native.TaskID{Bootstrap: false, Index: 0}]; !ok {
		t.Fatal("compaction dropped the completed task")
	}
}

func TestJobStoreSkipsRecordsForUnknownJobs(t *testing.T) {
	// Records whose accept record was lost (torn tail) must be skipped, not
	// fatal: recovery restores the maximal consistent prefix.
	recs := []walRecord{
		{typ: recJobStarted, payload: appendStr(nil, "j-000009")},
		{typ: recTaskDone, payload: appendStr(nil, "j-000009")},
		{typ: recJobCancelled, payload: appendStr(nil, "j-000009")},
	}
	jobs, err := replayJobRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("orphan records produced %d jobs", len(jobs))
	}
}

func TestJobStoreDuplicateAcceptFirstWins(t *testing.T) {
	var p []byte
	p = appendStr(p, "j-000001")
	p = appendLenBytes(p, []byte(`{"seed": 7}`))
	var p2 []byte
	p2 = appendStr(p2, "j-000001")
	p2 = appendLenBytes(p2, []byte(`{"seed": 8}`))
	jobs, err := replayJobRecords([]walRecord{
		{typ: recJobAccepted, payload: p},
		{typ: recJobAccepted, payload: p2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if j := jobs["j-000001"]; j == nil || j.spec.Seed != 7 {
		t.Fatalf("duplicate accept did not keep the first spec: %+v", j)
	}
}
