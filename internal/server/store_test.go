package server

// Job-store tests: record semantics over the WAL — replay folding, latest-
// checkpoint-wins, task_done subsuming checkpoints, terminal states, and
// compaction keeping only what the next incarnation needs.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// writeStoreFixture writes three jobs' records through st and returns the
// spec of the one left incomplete.
func writeStoreFixture(t testing.TB, st *jobStore) JobSpec {
	t.Helper()
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
	return specC
}

func TestJobStoreReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, jobs := openTestStore(t, dir)
	if len(jobs) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(jobs))
	}

	specC := writeStoreFixture(t, st)
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

// TestCompactionKeepsEveryLiveJob: twelve accepted jobs that never finish,
// each with a 1 MiB inline alignment (under MaxRequestBytes and at the
// 1M-cell cap), survive every restart of a store with default options. Their
// compaction alone writes 12 MiB; a log that switched to a new segment while
// writing it deleted the records it had just compacted.
func TestCompactionKeepsEveryLiveJob(t *testing.T) {
	const jobs, taxa, length = 12, 4, 1 << 18
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	seq := strings.Repeat("ACGT", length/4)
	for i := 1; i <= jobs; i++ {
		spec := JobSpec{Seed: int64(i)}
		for k := 0; k < taxa; k++ {
			spec.Sequences = append(spec.Sequences, SequenceSpec{Name: fmt.Sprintf("taxon%d", k), Seq: seq})
		}
		if err := st.jobAccepted(fmt.Sprintf("j-%06d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for start := 2; start <= 3; start++ {
		st, got := openTestStore(t, dir)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != jobs {
			t.Fatalf("start %d recovered %d of %d jobs", start, len(got), jobs)
		}
		for id, j := range got {
			if len(j.spec.Sequences) != taxa || len(j.spec.Sequences[taxa-1].Seq) != length {
				t.Fatalf("start %d: job %s recovered without its alignment", start, id)
			}
		}
	}
}

// TestTornSegmentBeforeCompactedOneReplays: a crash tore the tail of
// wal-000000.log, the next start compacted its live records into
// wal-000001.log and died before deleting segment 0. Logs written before
// replay cut torn tails were left exactly so, and such a dir opens with the
// job recovered — twice, so the compacted result opens too.
func TestTornSegmentBeforeCompactedOneReplays(t *testing.T) {
	src := t.TempDir()
	st, _ := openTestStore(t, src)
	if err := st.jobAccepted("j-000001", smallSpec(1)); err != nil {
		t.Fatal(err)
	}
	st.jobStarted("j-000001", 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(filepath.Join(src, fmt.Sprintf(walSegmentPattern, 0)))
	if err != nil {
		t.Fatal(err)
	}
	torn := appendWALFrame(nil, recCheckpoint, bytes.Repeat([]byte{7}, 64))[:40]

	dir := t.TempDir()
	for i, data := range [][]byte{append(live, torn...), live} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(walSegmentPattern, i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for open := 1; open <= 2; open++ {
		st, jobs, err := openJobStore(walOptions{dir: dir})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if j := jobs["j-000001"]; len(jobs) != 1 || j == nil || !j.incomplete() || j.attempts != 1 {
			t.Fatalf("open %d recovered %d jobs, j-000001 = %+v", open, len(jobs), j)
		}
	}
	if segs, err := walSegments(dir); err != nil || len(segs) != 1 {
		t.Fatalf("compaction left segments %+v (%v), want only the newest", segs, err)
	}
}

// fuzzRecords reads in as a run of records, each a type byte, a uvarint
// payload length and the payload; the end of in cuts the last one short.
func fuzzRecords(in []byte) []walRecord {
	var recs []walRecord
	for len(in) > 0 {
		typ := recType(in[0])
		n, k := binary.Uvarint(in[1:])
		in = in[1+max(k, 0):]
		n = min(n, uint64(len(in)))
		recs = append(recs, walRecord{typ: typ, payload: in[:n]})
		in = in[n:]
	}
	return recs
}

// appendFuzzRecord is fuzzRecords' inverse for one record.
func appendFuzzRecord(dst []byte, r walRecord) []byte {
	dst = append(dst, byte(r.typ))
	return appendLenBytes(dst, r.payload)
}

// fuzzAllocPerByte and fuzzAllocFixed bound what opening a fuzzed log may
// allocate: the fixed part covers the write buffer (64 KiB) and the syncer,
// the per-byte part the file, its records, each job's maps and decoded spec,
// and the compacted copy.
const (
	fuzzAllocFixed   = 256 << 10
	fuzzAllocPerByte = 512
)

// FuzzReplayWAL: bytes any writer frames with valid CRCs make a log the
// store opens without panicking and within a bounded allocation, or refuses
// with an error; and once opened, the compacted log opens again to exactly
// the incomplete jobs the first open recovered. Seeded with the records
// writeStoreFixture writes, one at a time and all together.
func FuzzReplayWAL(f *testing.F) {
	src := f.TempDir()
	st, _, err := openJobStore(walOptions{dir: src})
	if err != nil {
		f.Fatal(err)
	}
	writeStoreFixture(f, st)
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	recs, err := readWALSegment(filepath.Join(src, fmt.Sprintf(walSegmentPattern, 0)), true)
	if err != nil {
		f.Fatal(err)
	}
	var all []byte
	for _, r := range recs {
		f.Add(appendFuzzRecord(nil, r))
		all = appendFuzzRecord(all, r)
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, in []byte) {
		var seg []byte
		for _, r := range fuzzRecords(in) {
			seg = appendWALFrame(seg, r.typ, r.payload)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(walSegmentPattern, 0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, jobs, err := openJobStore(walOptions{dir: dir})
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocFixed+fuzzAllocPerByte*len(in)); got > limit {
			t.Fatalf("opening a log of %d input bytes allocated %d bytes, bound %d", len(in), got, limit)
		}
		if err != nil {
			return // a log the replay cannot read is refused, not served
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, again, err := openJobStore(walOptions{dir: dir})
		if err != nil {
			t.Fatalf("the compacted log does not open: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		live := 0
		for id, j := range jobs {
			if !j.incomplete() {
				continue
			}
			live++
			if k := again[id]; k == nil || !sameRecoveredJob(j, k) {
				t.Fatalf("job %q changed across compaction:\n first %+v\nsecond %+v", id, j, k)
			}
		}
		if len(again) != live {
			t.Fatalf("second open recovered %d jobs, the first %d incomplete ones", len(again), live)
		}
	})
}

// sameRecoveredJob compares what a restart resumes a job from: its spec (as
// the JSON it is stored as), attempts, completed tasks and checkpoints.
func sameRecoveredJob(a, b *recoveredJob) bool {
	sa, _ := json.Marshal(a.spec)
	sb, _ := json.Marshal(b.spec)
	if !bytes.Equal(sa, sb) || a.attempts != b.attempts || !b.incomplete() ||
		len(a.tasks) != len(b.tasks) || len(a.ckpts) != len(b.ckpts) {
		return false
	}
	for key, ta := range a.tasks {
		tb, ok := b.tasks[key]
		if !ok || math.Float64bits(ta.logLik) != math.Float64bits(tb.logLik) || !bytes.Equal(ta.tree, tb.tree) {
			return false
		}
	}
	for key, ca := range a.ckpts {
		if cb, ok := b.ckpts[key]; !ok || !bytes.Equal(ca, cb) {
			return false
		}
	}
	return true
}
