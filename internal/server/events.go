package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one entry of a job's progress stream. Events are totally ordered
// per job by Seq. A stream is a cursor over the job's complete history
// (EventLog.After), so a consumer never misses the terminal event however far
// it falls behind, and a reconnecting one resumes after the last Seq it saw.
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

// EventLog is the append-only event history of one job. Readers hold no
// state in it: each is a cursor (After) that waits on the log's wake channel,
// so the producer — a job-runner goroutine — never blocks on a slow client
// and a stalled client costs only its own connection. Safe for concurrent
// use.
type EventLog struct {
	mu     sync.Mutex
	events []Event
	closed bool
	wake   chan struct{} // closed, and unless the log is closed replaced, on every change
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
	l.events = append(l.events, Event{Seq: len(l.events) + 1, Time: time.Now().UTC(), Type: typ, Data: data})
	close(l.wake)
	l.wake = make(chan struct{})
}

// Close marks the log terminal and wakes every waiting reader for the last
// time. It is called after the job's terminal event has been appended.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.wake)
	}
}

// After returns the events with sequence numbers above seq, the cursor to
// pass next time, and a channel that is closed when the log changes again —
// nil once the log is closed, when evs completes the history. Seqs are
// 1-based and dense, so seq 0 reads everything; a seq outside the history is
// clamped to it (the contract behind the SSE Last-Event-ID header: a
// reconnecting client passes the last id it saw and receives only what it
// missed). The returned events are shared with the log and never written
// again.
func (l *EventLog) After(seq int) (evs []Event, next int, more <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = len(l.events)
	seq = max(0, min(seq, next))
	if !l.closed {
		more = l.wake
	}
	return l.events[seq:next:next], next, more
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w io.Writer, ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
	return err
}
