package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Event is one entry of a job's progress stream, in the JSON form its SSE
// frame's data line carries. Events are totally ordered per job by Seq. A
// stream is a cursor over the job's complete history (EventLog.After), so a
// consumer never misses the terminal event however far it falls behind, and a
// reconnecting one resumes after the last Seq it saw.
type Event struct {
	Seq  int            `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"`
	Data map[string]any `json:"data,omitempty"`
}

// Event types emitted over a job's lifetime.
const (
	EventQueued    = "queued"
	EventStarted   = "started"
	EventProgress  = "progress"
	EventDone      = "done"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
)

// EventLog is the append-only event history of one job, held as the wire
// bytes a stream sends: Append encodes each event once, as its text/event-stream
// frame, into one buffer, so a job keeps no payload maps and a stream with
// several subscribers encodes nothing per read. Readers hold no state in it:
// each is a cursor (After) that waits on the log's wake channel, so the
// producer — a job-runner goroutine — never blocks on a slow client and a
// stalled client costs only its own connection. Safe for concurrent use.
type EventLog struct {
	mu     sync.Mutex
	frames []byte // every frame so far, in Seq order; bytes once written never change
	ends   []int  // ends[i] is the end offset in frames of the frame with Seq i+1
	closed bool
	wake   chan struct{} // closed and replaced on every change; nil once the log is closed
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{wake: make(chan struct{})}
}

// Append records an event and wakes every waiting reader. Appends after Close
// are dropped (the job is terminal; nothing meaningful can follow).
func (l *EventLog) Append(typ string, data map[string]any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev := Event{Seq: len(l.ends) + 1, Time: time.Now().UTC(), Type: typ, Data: data}
	l.frames = appendSSE(l.frames, ev)
	l.ends = append(l.ends, len(l.frames))
	close(l.wake)
	l.wake = make(chan struct{})
}

// Close marks the log terminal and wakes every waiting reader for the last
// time. It is called after the job's terminal event has been appended, and
// trims the history to its exact size: a terminal job keeps it until
// eviction.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.wake)
		l.wake = nil
		l.frames = slices.Clone(l.frames)
		l.ends = slices.Clone(l.ends)
	}
}

// After returns the frames of the events with sequence numbers above seq, as
// one byte range ready to be written to an SSE stream, the cursor to pass
// next time, and a channel that is closed when the log changes again — nil
// once the log is closed, when frames completes the history. Seqs are 1-based
// and dense, so seq 0 reads everything; a seq outside the history is clamped
// to it (the contract behind the SSE Last-Event-ID header: a reconnecting
// client passes the last id it saw and receives only what it missed). The
// returned bytes are shared with the log and never written again.
func (l *EventLog) After(seq int) (frames []byte, next int, more <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = len(l.ends)
	seq = max(0, min(seq, next))
	lo, hi := 0, 0
	if seq > 0 {
		lo = l.ends[seq-1]
	}
	if next > 0 {
		hi = l.ends[next-1]
	}
	if !l.closed {
		more = l.wake
	}
	return l.frames[lo:hi:hi], next, more
}

// appendSSE appends one event in text/event-stream framing: its id, its type
// and its JSON.
func appendSSE(dst []byte, ev Event) []byte {
	payload, err := json.Marshal(ev)
	if err != nil {
		// A payload JSON cannot carry (a NaN log-likelihood) is dropped; the
		// event itself, and every event after it, still reaches the stream.
		ev.Data = nil
		payload, _ = json.Marshal(ev)
	}
	dst = append(strconv.AppendInt(append(dst, "id: "...), int64(ev.Seq), 10), "\nevent: "...)
	dst = append(append(dst, ev.Type...), "\ndata: "...)
	return append(append(dst, payload...), "\n\n"...)
}
