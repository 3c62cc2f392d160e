package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// oldFrame is the encoding every read used to redo per event: the event's
// JSON inside its text/event-stream framing.
func oldFrame(t *testing.T, ev Event) string {
	t.Helper()
	payload, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
}

// TestEventFramesMatchPerReadEncoding: the frames Append encodes once are
// byte for byte what encoding each event at every read produced, for every
// event type with the payloads the server emits (and a string JSON must
// escape), and an SSE stream resumed with Last-Event-ID from every seq — and
// from outside the history — serves exactly the frames after it. A payload
// JSON cannot carry is dropped from its event, which still arrives.
func TestEventFramesMatchPerReadEncoding(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := &Job{ID: "j-frames", events: NewEventLog(), done: make(chan struct{})}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()

	appended := []Event{
		{Type: EventQueued, Data: map[string]any{"tenant": "t<1>", "priority": "interactive", "tasks": 2}},
		{Type: EventQueued, Data: map[string]any{"tenant": "t", "priority": "batch", "tasks": 2, "recovered": true, "attempt": 2}},
		{Type: EventStarted, Data: map[string]any{"queue_wait_ms": 0.123456789, "attempt": 1}},
		{Type: EventProgress, Data: map[string]any{"completed": 1, "total": 2, "kind": "inference", "index": 0, "log_lik": -1234.5678901234}},
		{Type: EventProgress, Data: map[string]any{"completed": 2, "total": 2, "kind": "bootstrap", "index": 0, "log_lik": math.NaN()}},
		{Type: EventFailed, Data: map[string]any{"error": "job \"x\" & <y>\n\tfailed ✗"}},
		{Type: EventCancelled},
		{Type: EventDone, Data: map[string]any{"best_log_lik": -1e-300}},
	}
	for _, ev := range appended {
		j.events.Append(ev.Type, ev.Data)
	}
	j.events.Close()

	all, next, more := j.events.After(0)
	if next != len(appended) || more != nil {
		t.Fatalf("closed log: next %d, more %v; want %d, nil", next, more, len(appended))
	}
	// Split the history into frames and take each one's time from its JSON:
	// the rest of the event is what was appended.
	var frames []string
	for _, f := range strings.SplitAfter(string(all), "\n\n") {
		if f != "" {
			frames = append(frames, f)
		}
	}
	if len(frames) != len(appended) {
		t.Fatalf("history holds %d frames, want %d", len(frames), len(appended))
	}
	for i, f := range frames {
		_, data, ok := strings.Cut(f, "\ndata: ")
		var got struct {
			Time time.Time `json:"time"`
		}
		if !ok || json.Unmarshal([]byte(data), &got) != nil {
			t.Fatalf("frame %d has no data line with a time: %q", i, f)
		}
		ev := appended[i]
		ev.Seq, ev.Time = i+1, got.Time
		if ev.Data["log_lik"] != nil && math.IsNaN(ev.Data["log_lik"].(float64)) {
			ev.Data = nil
		}
		if want := oldFrame(t, ev); f != want {
			t.Errorf("frame %d:\n got %q\nwant %q", i+1, f, want)
		}
	}

	for after := -1; after <= len(frames)+1; after++ {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", strconv.Itoa(after))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		from := max(0, min(after, len(frames)))
		if want := strings.Join(frames[from:], ""); string(body) != want {
			t.Errorf("Last-Event-ID %d: served %q, want %q", after, body, want)
		}
	}
}
