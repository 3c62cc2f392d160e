package server

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// stalledWriter is an SSE client that stops reading: its first Write parks
// until release is closed, the way a write into a full socket does.
type stalledWriter struct {
	header  http.Header
	entered chan struct{} // closed when the first Write arrives
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.buf.Write(p)
}

// TestStalledEventConsumerStillReceivesTerminalEvent: a consumer that reads
// nothing while its job emits 1,000 events and the terminal one must, once it
// reads again, receive every event in order with the terminal one last — the
// stream is a cursor over the complete history, not a bounded buffer that
// drops — and the producer must never have waited for it.
func TestStalledEventConsumerStillReceivesTerminalEvent(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	j := &Job{ID: "j-stalled", events: NewEventLog(), done: make(chan struct{})}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	j.events.Append(EventQueued, nil)

	w := &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil)
	req.SetPathValue("id", j.ID)
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		s.handleEvents(w, req)
	}()
	<-w.entered // the consumer is attached and stalled on the queued event

	const progress = 1000
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < progress; i++ {
			j.events.Append(EventProgress, map[string]any{"i": i})
		}
		j.events.Append(EventDone, nil)
		j.events.Close()
	}()
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("the producer blocked on a stalled consumer")
	}

	close(w.release)
	select {
	case <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after the log closed")
	}
	var ids []int
	var lastType string
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			n, err := strconv.Atoi(id)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, n)
		}
		if ty, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			lastType = ty
		}
	}
	if want := 1 + progress + 1; len(ids) != want {
		t.Fatalf("received %d events, want %d", len(ids), want)
	}
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("event %d carries id %d: out of order or dropped", i, id)
		}
	}
	if lastType != EventDone {
		t.Errorf("last event %q, want %q", lastType, EventDone)
	}
}
