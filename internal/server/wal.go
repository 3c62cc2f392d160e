package server

// Write-ahead log: an append-only sequence of CRC-framed records with
// group-commit fsync batching. The job store (store.go) defines what the
// records mean; this file only knows how to frame, batch and replay them.
//
// Frame layout, little-endian:
//
//	┌─────────┬─────────────┬────────┬───────────┐
//	│ u32 len │ u32 crc32c  │ u8 typ │  payload  │
//	└─────────┴─────────────┴────────┴───────────┘
//	   len = 1 + len(payload)   crc over typ+payload
//
// Segments: each open replays the numbered segment files in order, then
// appends to one fresh segment until Close. The store compacts into it and
// deletes the older ones at open, so between restarts the log only grows.
//
// Durability model: append() buffers the frame and returns; a dedicated
// syncer goroutine flushes and fsyncs, so N appends racing one disk flush
// cost one fsync (group commit). appendDurable() additionally waits until
// the record's generation is covered by a completed fsync — job acceptance
// uses it, so an acknowledged job is on disk before the 202 goes out.
//
// Failure model: a write or fsync error marks the log degraded and bumps the
// error counter, but appends keep succeeding in memory — the server keeps
// serving (the "degrade to in-memory-only" contract) and merely
// loses durability until the operator intervenes. Replay tolerates a torn
// tail (the expected residue of a crash mid-write): it stops at the tail and
// truncates the segment there, so every segment but the newest is whole and
// a bad frame anywhere else is corruption.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cellmg/internal/faultinject"
)

// recType tags a WAL record; the job store assigns meanings.
type recType uint8

const (
	recJobAccepted  recType = 1
	recJobStarted   recType = 2
	recCheckpoint   recType = 3
	recTaskDone     recType = 4
	recJobFinished  recType = 5
	recJobCancelled recType = 6
)

// String returns the name fault-injection rules match on.
func (t recType) String() string {
	switch t {
	case recJobAccepted:
		return "job_accepted"
	case recJobStarted:
		return "job_started"
	case recCheckpoint:
		return "checkpoint"
	case recTaskDone:
		return "task_done"
	case recJobFinished:
		return "job_finished"
	case recJobCancelled:
		return "job_cancelled"
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

// walRecord is one replayed record.
type walRecord struct {
	typ     recType
	payload []byte
}

// walCRC is the frame checksum table (Castagnoli, like the phylo codecs).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

const (
	walSegmentPattern = "wal-%06d.log"
	walSegmentGlob    = "wal-*.log"
	// walHeaderSize is the per-frame overhead: length, crc, type byte.
	walHeaderSize = 9
	// syncInterval paces the syncer: at most one fsync per interval, so a
	// buffered record waits at most this long for its group fsync.
	syncInterval = 2 * time.Millisecond
	// defaultFlushInterval bounds how long a record nobody waits on
	// (checkpoints, task completions) may sit in the write buffer. Losing a
	// crash's last flush window of those only costs recomputed work —
	// acceptance records, whose loss would lose a job, take the durable path
	// and never wait this long.
	defaultFlushInterval = 50 * time.Millisecond
)

// walOptions configures openWAL.
type walOptions struct {
	dir           string
	flushInterval time.Duration
	inj           *faultinject.Injector
	// onError observes every degraded write/sync ("append" or "sync") —
	// wired to cellmg_wal_errors_total.
	onError func(op string)
}

func (o *walOptions) withDefaults() {
	if o.flushInterval <= 0 {
		o.flushInterval = defaultFlushInterval
	}
}

// wal is the framed append-only log.
type wal struct {
	opts     walOptions
	segIndex int      // the segment appended to; every lower one was replayed
	f        *os.File // that segment, open until Close

	mu       sync.Mutex
	cond     *sync.Cond // signals the syncer; broadcast on sync completion
	bw       *bufio.Writer
	frameBuf []byte // reused frame scratch, guarded by mu

	appendGen uint64 // generations appended to the buffer
	syncGen   uint64 // generations covered by a completed flush+fsync
	wantGen   uint64 // highest generation a caller is blocked waiting on
	degraded  bool   // a write or sync error has occurred
	closed    bool

	wake       chan struct{} // nudges the syncer out of its lazy sleep
	syncerDone chan struct{}
}

// openWAL replays every segment in dir (creating it if needed), cutting off
// a torn tail, then opens a fresh segment for this log's appends and starts
// the syncer. The replayed records are returned in log order; compaction
// (store.go) decides which survive into the new segment before the old ones
// are deleted.
func openWAL(opts walOptions) (*wal, []walRecord, error) {
	opts.withDefaults()
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := walSegments(opts.dir)
	if err != nil {
		return nil, nil, err
	}
	var records []walRecord
	nextIndex := 0
	for i, seg := range segs {
		recs, err := readWALSegment(seg.path, i == len(segs)-1)
		if err != nil {
			return nil, nil, err
		}
		records = append(records, recs...)
		nextIndex = seg.index + 1
	}
	path := filepath.Join(opts.dir, fmt.Sprintf(walSegmentPattern, nextIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	w := &wal{opts: opts, segIndex: nextIndex, f: f, bw: bufio.NewWriterSize(f, 1<<16),
		wake: make(chan struct{}, 1), syncerDone: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.syncer()
	return w, records, nil
}

// dropOlderSegments deletes every segment older than the one this log
// appends to — the destructive half of compaction, called by the store once
// the live records have been rewritten into that segment and synced.
func (w *wal) dropOlderSegments() error {
	segs, err := walSegments(w.opts.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.index < w.segIndex {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: compaction: %w", err)
			}
		}
	}
	return nil
}

type walSegment struct {
	index int
	path  string
}

// walSegments lists segment files sorted by index.
func walSegments(dir string) ([]walSegment, error) {
	paths, err := filepath.Glob(filepath.Join(dir, walSegmentGlob))
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, p := range paths {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), walSegmentPattern, &idx); err != nil {
			continue // not ours
		}
		segs = append(segs, walSegment{index: idx, path: p})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].index < segs[k].index })
	return segs, nil
}

// readWALSegment replays one segment and cuts off its torn tail, if any:
// the file is truncated to its last whole frame and fsynced before the
// records are returned, so only the newest segment is ever torn. There a
// crash mid-write leaves the tail, and a malformed frame ends the replay. In
// an earlier segment a malformed frame is corruption and an error — unless
// it is a final frame cut short by the end of the file, which logs written
// before replay cut torn tails can hold (a start that crashed after
// compacting into a newer segment, before deleting this one).
func readWALSegment(path string, last bool) ([]walRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var records []walRecord
	off := 0
	for off < len(data) {
		rec, n, ok := parseWALFrame(data[off:])
		if !ok {
			if !last && !cutShort(data[off:]) {
				return nil, fmt.Errorf("wal: corrupt frame at %s:%d", filepath.Base(path), off)
			}
			if err := truncateSynced(path, int64(off)); err != nil {
				return nil, err
			}
			break
		}
		records = append(records, rec)
		off += n
	}
	return records, nil
}

// cutShort reports whether data begins with a frame the end of the file cut
// short: too few bytes for its header, or for the length the header gives.
func cutShort(data []byte) bool {
	return len(data) < walHeaderSize || int(binary.LittleEndian.Uint32(data)) > len(data)-8
}

// truncateSynced cuts the file at path to size bytes and fsyncs it.
func truncateSynced(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		err = errors.Join(f.Truncate(size), f.Sync(), f.Close())
	}
	if err != nil {
		return fmt.Errorf("wal: cutting torn tail: %w", err)
	}
	return nil
}

// appendWALFrame appends one frame holding typ and payload to dst.
func appendWALFrame(dst []byte, typ recType, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc patched below
	dst = append(dst, byte(typ))
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], walCRC))
	return dst
}

// parseWALFrame decodes one frame from the head of data. ok=false means the
// bytes do not form a whole valid frame (short, bad length, or bad CRC).
func parseWALFrame(data []byte) (walRecord, int, bool) {
	if len(data) < walHeaderSize {
		return walRecord{}, 0, false
	}
	length := binary.LittleEndian.Uint32(data)
	want := binary.LittleEndian.Uint32(data[4:])
	if length < 1 || int(length) > len(data)-8 {
		return walRecord{}, 0, false
	}
	body := data[8 : 8+length]
	if crc32.Checksum(body, walCRC) != want {
		return walRecord{}, 0, false
	}
	payload := make([]byte, length-1)
	copy(payload, body[1:])
	return walRecord{typ: recType(body[0]), payload: payload}, 8 + int(length), true
}

// noteError marks the log degraded and feeds the error counter.
func (w *wal) noteError(op string) {
	w.degraded = true
	if w.opts.onError != nil {
		w.opts.onError(op)
	}
}

// append frames and buffers one record. It never blocks on the disk; the
// returned error reflects only injected/system write failures (after which
// the server continues in memory — see the failure model above). The payload
// is copied into the write buffer before returning and may be reused.
func (w *wal) append(typ recType, payload []byte) error {
	_, err := w.appendGenerated(typ, payload)
	return err
}

// appendDurable is append plus a wait for the record's fsync batch — the
// acceptance path, where losing an acknowledged record would break the
// zero-lost-jobs contract.
func (w *wal) appendDurable(typ recType, payload []byte) error {
	gen, err := w.appendGenerated(typ, payload)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.markWantedLocked(gen)
	for w.syncGen < gen && !w.closed && !w.degraded {
		w.cond.Wait()
	}
	if w.degraded && w.syncGen < gen {
		return fmt.Errorf("wal: degraded, record not durable")
	}
	return nil
}

// markWantedLocked flags gen as urgent and kicks the syncer out of its lazy
// sleep so the waiter's fsync starts now, not at the next flush window.
func (w *wal) markWantedLocked(gen uint64) {
	if gen > w.wantGen {
		w.wantGen = gen
	}
	w.cond.Broadcast()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *wal) appendGenerated(typ recType, payload []byte) (uint64, error) {
	act, dead := w.opts.inj.At(faultinject.OpWALAppend, typ.String())
	if act.Stall > 0 {
		time.Sleep(act.Stall)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || dead {
		// Dead mode: the simulated process no longer exists; the write
		// silently never happens, exactly like bytes that missed the disk.
		return w.appendGen, nil
	}
	if act.Err != nil {
		w.noteError("append")
		return w.appendGen, fmt.Errorf("wal: %w", act.Err)
	}
	if act.Kill && act.TornBytes <= 0 {
		// The kill boundary: the process dies before this record's write
		// syscall, so the record itself is lost along with everything after.
		return w.appendGen, nil
	}
	frame := appendWALFrame(w.frameBuf[:0], typ, payload)
	w.frameBuf = frame

	if act.TornBytes > 0 {
		// Torn write: part of the frame reaches the disk, then the process
		// dies. Bypass the buffer so the torn bytes are really in the file
		// for replay to trip over.
		n := min(act.TornBytes, len(frame))
		_ = w.bw.Flush()
		_, _ = w.f.Write(frame[:n])
		_ = w.f.Sync()
		return w.appendGen, nil
	}
	if _, err := w.bw.Write(frame); err != nil {
		w.noteError("append")
		return w.appendGen, fmt.Errorf("wal: %w", err)
	}
	w.appendGen++
	w.cond.Broadcast() // wake the syncer
	return w.appendGen, nil
}

// syncer is the group-commit loop: it sleeps until records are buffered,
// flushes them, fsyncs once, and marks every record up to the flushed
// generation durable. Urgency is caller-driven: generations someone blocks on
// (appendDurable, sync) are fsynced immediately; records nobody waits on —
// checkpoints and task completions, which a crash merely recomputes — batch
// up for one lazy flush per flushInterval, so a busy server pays fsyncs at
// the acceptance rate, not the checkpoint rate.
func (w *wal) syncer() {
	defer close(w.syncerDone)
	w.mu.Lock()
	for {
		for !w.closed && w.appendGen == w.syncGen {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		if w.wantGen <= w.syncGen {
			// Nothing urgent buffered: sleep out the lazy window, leaving the
			// lock so appends stream in; a durable waiter nudges wake to cut
			// the sleep short.
			w.mu.Unlock()
			select {
			case <-w.wake:
			case <-time.After(w.opts.flushInterval):
			}
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				return
			}
			if w.appendGen == w.syncGen {
				continue
			}
		}
		gen := w.appendGen
		if err := w.bw.Flush(); err != nil {
			w.noteError("sync")
			w.syncGen = gen // unblock durable waiters; degraded flag is set
			w.cond.Broadcast()
			continue
		}
		w.mu.Unlock()
		// fsync outside the lock: appends keep buffering into the page cache
		// while the disk flush runs — that is the batching. Close waits for
		// this goroutine before it closes the file.
		act, dead := w.opts.inj.At(faultinject.OpWALSync, "")
		if act.Stall > 0 {
			time.Sleep(act.Stall)
		}
		var err error
		if act.Err != nil {
			err = act.Err
		} else if !dead {
			err = w.f.Sync()
		}
		w.mu.Lock()
		if err != nil {
			w.noteError("sync")
		}
		if gen > w.syncGen {
			w.syncGen = gen
		}
		w.cond.Broadcast()
		// Pace the loop: one fsync per interval at most, so a steady stream
		// of appends batches into few syncs instead of one sync each. Skip
		// the pause while a durable waiter is already queued — its batch
		// formed naturally during the fsync just finished, and delaying it
		// only adds acceptance latency.
		if !w.closed && w.wantGen <= w.syncGen {
			w.mu.Unlock()
			time.Sleep(syncInterval)
			w.mu.Lock()
		}
	}
}

// sync blocks until everything appended so far is flushed and fsynced.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.appendGen
	w.markWantedLocked(gen)
	for w.syncGen < gen && !w.closed && !w.degraded {
		w.cond.Wait()
	}
	if w.degraded && w.syncGen < gen {
		return fmt.Errorf("wal: degraded, flush incomplete")
	}
	return nil
}

// isDegraded reports whether any write or sync has failed.
func (w *wal) isDegraded() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

// Close flushes, fsyncs and closes the log. Records appended before Close
// returns are durable (unless degraded).
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	flushErr := w.bw.Flush()
	syncErr := w.f.Sync()
	w.syncGen = w.appendGen
	w.closed = true
	w.cond.Broadcast()
	select { // cut a lazy-sleeping syncer short
	case w.wake <- struct{}{}:
	default:
	}
	w.mu.Unlock()
	<-w.syncerDone
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
