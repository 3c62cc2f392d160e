package server

// WAL unit tests: framing, replay, torn tails, group commit, and
// the degraded mode entered on injected write/sync failures. Crash-recovery
// at the job level lives in recovery_test.go; these tests stay below the
// store, on raw records.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// writeSegment writes recs, framed, as segment index of dir, followed by the
// raw bytes of tail (a torn frame, say): a segment as any build of the log
// would have left it.
func writeSegment(t *testing.T, dir string, index int, recs []walRecord, tail []byte) string {
	t.Helper()
	var data []byte
	for _, r := range recs {
		data = appendWALFrame(data, r.typ, r.payload)
	}
	path := filepath.Join(dir, fmt.Sprintf(walSegmentPattern, index))
	if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// numbered returns n checkpoint records whose payloads count from first.
func numbered(first, n int) []walRecord {
	recs := make([]walRecord, n)
	for i := range recs {
		recs[i] = walRecord{typ: recCheckpoint, payload: []byte(fmt.Sprintf("payload-%02d", first+i))}
	}
	return recs
}

// TestWALReplaysWholeSegmentsInOrder: a data dir holding several segments —
// as a log that switched files while running left it, down to a torn tail in
// the newest — replays every record in segment order, cuts only the torn
// tail, and appends to a segment after all of them.
func TestWALReplaysWholeSegmentsInOrder(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 3, numbered(0, 5), nil)
	writeSegment(t, dir, 4, numbered(5, 5), nil)
	torn := appendWALFrame(nil, recCheckpoint, []byte("lost"))[:7]
	newest := writeSegment(t, dir, 5, numbered(10, 5), torn)

	w, recs := openTestWAL(t, dir, nil, nil)
	defer w.Close()
	if len(recs) != 15 {
		t.Fatalf("replayed %d records across segments, want 15", len(recs))
	}
	for i, r := range recs {
		if string(r.payload) != fmt.Sprintf("payload-%02d", i) {
			t.Fatalf("record %d out of order: %q", i, r.payload)
		}
	}
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 * (walHeaderSize + len("payload-10"))); fi.Size() != want {
		t.Fatalf("newest segment is %d bytes, want %d: its torn tail was not cut", fi.Size(), want)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 || segs[3].index != 6 || w.segIndex != 6 {
		t.Fatalf("segments %+v, appending to %d: want 3..5 kept and 6 fresh", segs, w.segIndex)
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
	// The replay cut the torn bytes off, so the segment is whole again.
	fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf(walSegmentPattern, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(walHeaderSize + len("before")); fi.Size() != want {
		t.Fatalf("torn segment is %d bytes, want %d: its torn tail was not cut", fi.Size(), want)
	}
}

// TestWALCorruptEarlierSegmentIsFatal: replay cuts a torn tail off the
// newest segment only, so every earlier segment is whole and a frame that
// fails its CRC there is corruption, not the residue of a crash.
func TestWALCorruptEarlierSegmentIsFatal(t *testing.T) {
	frameLen := len(appendWALFrame(nil, recCheckpoint, []byte("payload-00")))
	for _, c := range []struct {
		name string
		off  int // byte of segment 0 to flip
	}{
		{"middle frame", frameLen + walHeaderSize},
		{"final frame", 3*frameLen - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			first := writeSegment(t, dir, 0, numbered(0, 3), nil)
			writeSegment(t, dir, 1, numbered(3, 3), nil)
			data, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			data[c.off] ^= 0xFF
			if err := os.WriteFile(first, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = openWAL(walOptions{dir: dir})
			if err == nil || !strings.Contains(err.Error(), "corrupt frame at wal-000000.log") {
				t.Fatalf("corrupt non-final segment opened: %v", err)
			}
		})
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
