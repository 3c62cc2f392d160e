package server

// WAL unit tests: framing, replay, rotation, torn tails, group commit, and
// the degraded mode entered on injected write/sync failures. Crash-recovery
// at the job level lives in recovery_test.go; these tests stay below the
// store, on raw records.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cellmg/internal/faultinject"
)

func openTestWAL(t *testing.T, dir string, inj *faultinject.Injector, onError func(string)) (*wal, []walRecord) {
	t.Helper()
	w, recs, err := openWAL(walOptions{
		dir:     dir,
		inj:     inj,
		onError: onError,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs := openTestWAL(t, dir, nil, nil)
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	want := []walRecord{
		{typ: recJobAccepted, payload: []byte("alpha")},
		{typ: recCheckpoint, payload: bytes.Repeat([]byte{0xAB}, 1024)},
		{typ: recTaskDone, payload: nil},
		{typ: recJobFinished, payload: []byte{0, 1, 2, 3}},
	}
	for _, r := range want {
		if err := w.append(r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.appendDurable(recJobCancelled, []byte("omega")); err != nil {
		t.Fatal(err)
	}
	want = append(want, walRecord{typ: recJobCancelled, payload: []byte("omega")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.typ != want[i].typ || !bytes.Equal(r.payload, want[i].payload) {
			t.Errorf("record %d: got (%s, %d bytes), want (%s, %d bytes)",
				i, r.typ, len(r.payload), want[i].typ, len(want[i].payload))
		}
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(walOptions{dir: dir, segmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := w.append(recCheckpoint, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if string(r.payload) != fmt.Sprintf("payload-%02d", i) {
			t.Fatalf("record %d out of order: %q", i, r.payload)
		}
	}
}

// TestWALRotationDuringFsyncStaysHealthy: the syncer fsyncs the current
// segment outside the lock, so an append that rotates the log meanwhile must
// not close that file under it — a "file already closed" from the fsync would
// degrade the log for the rest of the process.
func TestWALRotationDuringFsyncStaysHealthy(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Rule{Op: faultinject.OpWALSync,
		Action: faultinject.Action{Stall: 200 * time.Millisecond}})
	var errs atomic.Int32
	w, _, err := openWAL(walOptions{dir: dir, segmentMaxBytes: 256, inj: inj,
		onError: func(string) { errs.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("record-%02d-%s", i, bytes.Repeat([]byte{'x'}, 24))) }
	if err := w.append(recCheckpoint, payload(0)); err != nil {
		t.Fatal(err)
	}
	// The syncer has flushed record 0 and let go of the lock once the stall
	// rule has fired; it stays in its fsync for the stall.
	for deadline := time.Now().Add(5 * time.Second); !inj.Fired(0); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the syncer never reached its fsync")
		}
	}
	const n = 20 // 20 frames of 45 bytes cross 256 bytes three times
	for i := 1; i < n; i++ {
		if err := w.append(recCheckpoint, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.sync(); err != nil || w.isDegraded() || errs.Load() != 0 {
		t.Fatalf("rotation during an fsync degraded the log: sync error %v, degraded %v, onError called %d times",
			err, w.isDegraded(), errs.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if !bytes.Equal(r.payload, payload(i)) {
			t.Fatalf("record %d out of order: %q", i, r.payload)
		}
	}
}

func TestWALAppendDurableIsOnDiskBeforeReturn(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, nil, nil)
	defer w.Close()
	if err := w.appendDurable(recJobAccepted, []byte("must-survive")); err != nil {
		t.Fatal(err)
	}
	// Without closing (the process could die right here), the bytes must
	// already be in the segment file.
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readWALSegment(segs[len(segs)-1].path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].payload) != "must-survive" {
		t.Fatalf("durable record not on disk before return: %d records", len(recs))
	}
}

func TestWALTornTailTruncatesReplay(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Tag: "task_done",
		Action: faultinject.Action{TornBytes: 5},
	})
	w, _ := openTestWAL(t, dir, inj, nil)
	if err := w.append(recJobAccepted, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	// The torn record: 5 bytes of its frame land on disk, then dead mode.
	_ = w.append(recTaskDone, []byte("torn"))
	if !inj.Dead() {
		t.Fatal("torn write should have switched the injector to dead mode")
	}
	_ = w.append(recJobFinished, []byte("after")) // silently lost
	_ = w.Close()                                 // also dead; file left as-is

	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].payload) != "before" {
		t.Fatalf("replay after torn tail: got %d records, want just the pre-torn one", len(recs))
	}
}

func TestWALCorruptEarlierSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(walOptions{dir: dir, segmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.append(recCheckpoint, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment: that segment was closed
	// cleanly, so a bad CRC there is corruption, not a torn tail.
	path := segs[0].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(walOptions{dir: dir}); err == nil {
		t.Fatal("corrupt non-final segment must fail the open")
	}
}

func TestWALDegradedModeCountsAndContinues(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	inj := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Tag: "checkpoint", Action: faultinject.Action{Err: boom}},
	)
	var errCount atomic.Int64
	w, _ := openTestWAL(t, dir, inj, func(op string) {
		if op != "append" {
			t.Errorf("onError op = %q, want append", op)
		}
		errCount.Add(1)
	})
	defer w.Close()

	if err := w.append(recJobAccepted, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.append(recCheckpoint, []byte("b")); !errors.Is(err, boom) {
		t.Fatalf("injected append error not surfaced: %v", err)
	}
	if !w.isDegraded() {
		t.Fatal("write error must mark the log degraded")
	}
	if errCount.Load() != 1 {
		t.Fatalf("onError fired %d times, want 1", errCount.Load())
	}
	// Degraded is sticky but not fatal: later appends still succeed (the
	// server keeps running in memory, durability merely suspended).
	if err := w.append(recJobFinished, []byte("c")); err != nil {
		t.Fatal(err)
	}
}

func TestWALSyncErrorUnblocksDurableWaiters(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALSync, Action: faultinject.Action{Err: errors.New("fsync failed")}},
	)
	var sawSync atomic.Bool
	w, _ := openTestWAL(t, dir, inj, func(op string) {
		if op == "sync" {
			sawSync.Store(true)
		}
	})
	defer w.Close()
	// appendDurable must not hang when the fsync it waits for fails: it
	// returns (with an error or after a later successful sync) within the
	// test timeout instead of deadlocking.
	done := make(chan struct{})
	go func() {
		_ = w.appendDurable(recJobAccepted, []byte("x"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("appendDurable hung on a failed fsync")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !sawSync.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !sawSync.Load() {
		t.Fatal("injected fsync error was not counted")
	}
}

func TestWALStallDelaysButPreservesRecord(t *testing.T) {
	dir := t.TempDir()
	const stall = 50 * time.Millisecond
	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Tag: "job_accepted",
		Action: faultinject.Action{Stall: stall},
	})
	w, _ := openTestWAL(t, dir, inj, nil)
	start := time.Now()
	if err := w.appendDurable(recJobAccepted, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Fatalf("stall rule did not delay the append (%v < %v)", d, stall)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].payload) != "slow" {
		t.Fatal("stalled record was lost")
	}
}

func TestWALKillDropsEverythingAfter(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Tag: "job_started", After: 1,
		Action: faultinject.Action{Kill: true},
	})
	w, _ := openTestWAL(t, dir, inj, nil)
	_ = w.append(recJobStarted, []byte("s1")) // After: 1 skips this one
	_ = w.append(recJobAccepted, []byte("a"))
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	_ = w.append(recJobStarted, []byte("s2")) // kill fires here: record lost
	_ = w.append(recJobFinished, []byte("f")) // dead mode: lost too
	_ = w.Close()

	w2, recs := openTestWAL(t, dir, nil, nil)
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 pre-kill ones", len(recs))
	}
	if recs[0].typ != recJobStarted || recs[1].typ != recJobAccepted {
		t.Fatalf("unexpected survivors: %s, %s", recs[0].typ, recs[1].typ)
	}
}

func TestWALSegmentFilesAreRecognized(t *testing.T) {
	dir := t.TempDir()
	// Foreign files in the data dir must not confuse segment discovery.
	if err := os.WriteFile(filepath.Join(dir, "wal-junk.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs := openTestWAL(t, dir, nil, nil)
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("foreign files replayed as %d records", len(recs))
	}
}
