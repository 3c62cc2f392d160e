package flight

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Workers() != 0 {
		t.Fatal("nil recorder reports workers")
	}
	// None of these may panic; lanes clamp to 0.
	start := r.Now()
	r.Span(r.WorkerLane(3), KindKernel, 1, start, 1, 2)
	r.Instant(r.PolicyLane(), KindEval, 0, 4, 2)
	r.Instant(r.SubmitLane(-7), KindQueue, 0, 0, 0)
	r.Instant(r.JobLane(), KindJobRun, 0, 0, 0)
	r.Label(1, "x")
	snap := r.Snapshot()
	if len(snap.Events) != 0 || len(snap.Lanes) != 0 || snap.Dropped != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if got := snap.Summary(); !strings.HasPrefix(got, "events=0") {
		t.Fatalf("nil summary = %q", got)
	}
}

func TestLaneLayout(t *testing.T) {
	r := New(Config{Workers: 4, LaneEvents: 16})
	wantLanes := []string{
		"worker 0", "worker 1", "worker 2", "worker 3",
		"policy", "jobs",
		"submit 0", "submit 1", "submit 2", "submit 3",
	}
	snap := r.Snapshot()
	if len(snap.Lanes) != len(wantLanes) {
		t.Fatalf("lanes = %v, want %v", snap.Lanes, wantLanes)
	}
	for i, want := range wantLanes {
		if snap.Lanes[i] != want {
			t.Errorf("lane %d = %q, want %q", i, snap.Lanes[i], want)
		}
	}
	if got := r.WorkerLane(2); got != 2 {
		t.Errorf("WorkerLane(2) = %d", got)
	}
	if got := r.WorkerLane(99); got != 0 {
		t.Errorf("WorkerLane(out of range) = %d, want clamp to 0", got)
	}
	if got := r.PolicyLane(); got != 4 {
		t.Errorf("PolicyLane() = %d", got)
	}
	if got := r.JobLane(); got != 5 {
		t.Errorf("JobLane() = %d", got)
	}
	if got := r.SubmitLane(6); got != 6+2 { // 6%4=2 -> lane 4+2+2
		t.Errorf("SubmitLane(6) = %d", got)
	}
}

func TestRingWraparoundCountsDrops(t *testing.T) {
	r := New(Config{Workers: 1, LaneEvents: 8})
	lane := r.WorkerLane(0)
	for i := 0; i < 20; i++ {
		r.Instant(lane, KindMark, 0, int64(i), 0)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(snap.Events))
	}
	if snap.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12", snap.Dropped)
	}
	// Oldest retained first: payloads 12..19 in order.
	for i, ev := range snap.Events {
		if want := int64(12 + i); ev.A != want {
			t.Errorf("event %d payload = %d, want %d", i, ev.A, want)
		}
	}
}

func TestLaneEventsRoundsToPowerOfTwo(t *testing.T) {
	r := New(Config{Workers: 1, LaneEvents: 9})
	lane := r.WorkerLane(0)
	for i := 0; i < 16; i++ {
		r.Instant(lane, KindMark, 0, int64(i), 0)
	}
	if snap := r.Snapshot(); len(snap.Events) != 16 || snap.Dropped != 0 {
		t.Fatalf("capacity not rounded up: retained=%d dropped=%d", len(snap.Events), snap.Dropped)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New(Config{Workers: 1})
	start := r.Now()
	r.Span(r.WorkerLane(0), KindKernel, 7, start, 3, 2)
	snap := r.Snapshot()
	if len(snap.Events) != 1 {
		t.Fatalf("events = %d", len(snap.Events))
	}
	ev := snap.Events[0]
	if ev.Kind != KindKernel || ev.ID != 7 || ev.A != 3 || ev.B != 2 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Start != int64(start) {
		t.Errorf("start = %d, want %d", ev.Start, start)
	}
	if ev.Dur < 0 {
		t.Errorf("negative duration %d", ev.Dur)
	}
}

func TestFilterKeepsFlowAndPolicy(t *testing.T) {
	r := New(Config{Workers: 2})
	r.Label(1, "j-000001/alice")
	r.Label(2, "j-000002/bob")
	r.Instant(r.WorkerLane(0), KindKernel, 1, 0, 0)
	r.Instant(r.WorkerLane(1), KindKernel, 2, 0, 0)
	r.Instant(r.PolicyLane(), KindEval, 0, 4, 2)
	r.Instant(r.PolicyLane(), KindSwitch, 0, 2, 1)
	snap := r.Snapshot().Filter(1)
	if len(snap.Events) != 3 {
		t.Fatalf("filtered events = %d, want kernel(1)+eval+switch", len(snap.Events))
	}
	for _, ev := range snap.Events {
		if ev.ID == 2 {
			t.Errorf("foreign flow leaked through filter: %+v", ev)
		}
	}
	if len(snap.Labels) != 1 || snap.Labels[0].Label != "j-000001/alice" {
		t.Fatalf("filtered labels = %+v", snap.Labels)
	}
}

func TestSummary(t *testing.T) {
	r := New(Config{Workers: 1})
	start := r.Now()
	r.Span(r.WorkerLane(0), KindKernel, 0, start, 1, 1)
	r.Instant(r.PolicyLane(), KindSwitch, 0, 2, 1)
	got := r.Snapshot().Summary()
	if !strings.Contains(got, "events=2") || !strings.Contains(got, "kernel=1") ||
		!strings.Contains(got, "mgps-switch=1") {
		t.Fatalf("summary = %q", got)
	}
}

// TestRecordPathAllocs is the ISSUE's 0 allocs/op acceptance gate for the
// record path: Now, Span, and Instant on a live recorder.
func TestRecordPathAllocs(t *testing.T) {
	r := New(Config{Workers: 2, LaneEvents: 64})
	lane := r.WorkerLane(1)
	if n := testing.AllocsPerRun(1000, func() {
		start := r.Now()
		r.Span(lane, KindKernel, 42, start, 1, 2)
		r.Instant(lane, KindSweep, 42, 3, 4)
	}); n != 0 {
		t.Fatalf("record path allocates %v allocs/op, want 0", n)
	}
}

// TestConcurrentRecordAndSnapshot exercises many writers across shared lanes
// with a concurrent reader; run under -race this is the recorder's data-race
// gate.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(Config{Workers: 4, LaneEvents: 128})
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			lane := r.WorkerLane(w % 4)
			for i := 0; i < perWriter; i++ {
				start := r.Now()
				r.Span(lane, KindKernel, uint64(w), start, int64(i), 1)
				r.Instant(r.SubmitLane(w), KindQueue, uint64(w), int64(i), 1)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	snap := r.Snapshot()
	total := uint64(len(snap.Events)) + snap.Dropped
	if want := uint64(writers * perWriter * 2); total != want {
		t.Fatalf("retained+dropped = %d, want %d", total, want)
	}
}

func BenchmarkSpan(b *testing.B) {
	r := New(Config{Workers: 1})
	lane := r.WorkerLane(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := r.Now()
		r.Span(lane, KindKernel, 1, start, 1, 1)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Recorder
	lane := r.WorkerLane(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := r.Now()
		r.Span(lane, KindKernel, 1, start, 1, 1)
	}
}
