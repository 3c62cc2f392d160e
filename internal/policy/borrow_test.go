package policy

import (
	"fmt"
	"slices"
	"testing"
)

// TestBorrowYieldsToQueuedMaster is the loop-grain half of the grant cycle as
// a table: what a loop may borrow depends on the decision, on what is free, on
// the room in the caller's slice — and on nobody waiting for a master, so that
// a returned SPE goes to the queued task before it goes to the next loop.
func TestBorrowYieldsToQueuedMaster(t *testing.T) {
	type step struct {
		op     string // master, borrow, release
		proc   int
		queued int   // borrow: tasks waiting for a master
		room   int   // borrow: capacity of the caller's slice
		ids    []int // release: what goes back
		want   []int // master, borrow: the grant; nil for a refused master
	}
	for _, c := range []struct {
		name  string
		pool  *Pool
		steps []step
	}{
		{"two SPEs, LLP(2)", NewFixedPool(2, StaticLLPDecision(2)), []step{
			{op: "master", proc: 0, want: []int{0}},
			{op: "borrow", proc: 0, room: 1, want: []int{1}},
			{op: "master", proc: 1, want: nil}, // both taken: p1 queues
			{op: "release", ids: []int{1}},
			{op: "borrow", proc: 0, queued: 1, room: 1, want: []int{}}, // p1 is still waiting
			{op: "master", proc: 1, want: []int{1}},
			{op: "borrow", proc: 0, room: 1, want: []int{}}, // nothing idle
			{op: "release", ids: []int{1}},                  // p1's task ends
			{op: "borrow", proc: 0, room: 1, want: []int{1}},
		}},
		{"eight SPEs, LLP(4)", NewFixedPool(8, StaticLLPDecision(4)), []step{
			{op: "master", proc: 0, want: []int{0}},
			{op: "borrow", proc: 0, room: 7, want: []int{1, 2, 3}}, // SPEsPerLoop - 1
			{op: "master", proc: 1, want: []int{4}},
			{op: "borrow", proc: 1, room: 2, want: []int{5, 6}}, // a three-trip loop has room for two
			{op: "release", ids: []int{1, 2, 3}},
			{op: "borrow", proc: 0, room: 7, want: []int{1, 2, 3}},
			{op: "master", proc: 2, want: []int{7}},
			{op: "master", proc: 3, want: nil},
			{op: "release", ids: []int{5, 6}},
			{op: "borrow", proc: 1, queued: 1, room: 7, want: []int{}},
			{op: "master", proc: 3, want: []int{5}},
			{op: "borrow", proc: 1, room: 7, want: []int{6}}, // takes what is free, never waits
		}},
		{"eight SPEs, EDTLP", NewFixedPool(8, Decision{SPEsPerLoop: 1}), []step{
			{op: "master", proc: 0, want: []int{0}},
			{op: "borrow", proc: 0, room: 7, want: []int{}},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i, s := range c.steps {
				var got []int
				switch s.op {
				case "master":
					got, _ = c.pool.AcquireMaster(s.proc, nil)
				case "borrow":
					got = c.pool.Borrow(s.proc, make([]int, 0, s.room), s.queued)
				case "release":
					c.pool.Release(s.ids)
					continue
				}
				if !slices.Equal(got, s.want) || (got == nil) != (s.want == nil) {
					t.Fatalf("step %d, %s by p%d: got %v, want %v", i, s.op, s.proc, got, s.want)
				}
			}
		})
	}
}

// TestBorrowAllocatesNothing: a loop's whole conversation with the pool —
// borrow into the caller's slice, release, departure, the window evaluation
// every Window-th time — is on the path of every 5 to 15 µs kernel loop.
func TestBorrowAllocatesNothing(t *testing.T) {
	p := NewAdaptivePool(8, MGPSConfig{})
	master, _ := p.AcquireMaster(0, nil)
	into := make([]int, 0, 7)
	loop := func() {
		helpers := p.Borrow(0, into, 0)
		p.Release(helpers)
		p.Depart(0, 1)
	}
	for i := 0; i < 16; i++ {
		loop() // two windows: LLP is on and the window map has its bucket
	}
	if d := p.Decision(); !d.UseLLP {
		t.Fatalf("decision %v after 16 lone departures, want LLP", d)
	}
	if avg := testing.AllocsPerRun(100, loop); avg != 0 {
		t.Errorf("borrow, release and depart allocate %v per loop, want 0", avg)
	}
	p.Release(master)
}

// loopScript drives p through a task's life at loop grain the way the native
// runtime does — a master per task (AcquireMaster), then per loop Borrow,
// Release and Depart with the number of tasks in flight or queued as the
// waiting count, and at a task's end Release of the master and Depart with
// one more (the stream that just finished) — and returns one line per call:
// a lone search; a second task arriving while the first has a loop out, which
// queues and is served at the return, ahead of the next borrow; the two side
// by side; the second ending; the first alone again.
func loopScript(p *Pool) []string {
	var log []string
	rec := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	masters := map[int][]int{}
	active, queued := 0, 0
	into := make([]int, 0, p.alloc.Size()-1)
	depart := func(proc, waiting int, what string) {
		if ev, closed := p.Depart(proc, waiting); closed {
			rec("p%d %s departs (%d waiting), window closes: U=%d -> %v changed=%v", proc, what, waiting, ev.U, ev.Decision, ev.Changed)
		}
	}
	start := func(proc int) bool {
		m, ok := p.AcquireMaster(proc, nil)
		if !ok {
			rec("p%d waits for a master under %v", proc, p.Decision())
			return false
		}
		masters[proc] = m
		rec("p%d master %v under %v", proc, m, p.Decision())
		return true
	}
	borrow := func(proc int) []int {
		helpers := p.Borrow(proc, into, queued)
		rec("p%d loop borrows %v under %v (%d queued)", proc, helpers, p.Decision(), queued)
		return helpers
	}
	finishLoop := func(proc int, helpers []int) {
		p.Release(helpers)
		depart(proc, active, "loop")
	}
	loop := func(proc int) { finishLoop(proc, borrow(proc)) }
	end := func(proc int) {
		p.Release(masters[proc])
		delete(masters, proc)
		active--
		depart(proc, active+1, "task")
	}
	phase := func(name string) {
		evals, switches := p.Counts()
		rec("== %s: decision %v, %d evaluations, %d switches", name, p.Decision(), evals, switches)
	}

	phase("a lone search")
	active++
	start(0)
	for i := 0; i < 2*p.alloc.Size()+4; i++ {
		loop(0)
	}
	phase("tasks arrive while a loop is out")
	out := borrow(0)
	var waiting []int
	for proc := 1; proc < p.alloc.Size(); proc++ {
		active++
		if !start(proc) {
			queued++
			waiting = append(waiting, proc)
		}
	}
	finishLoop(0, out)
	out = borrow(0) // lends nothing while anyone is queued
	for _, proc := range waiting {
		if start(proc) {
			queued--
		}
	}
	finishLoop(0, out)
	phase("side by side")
	for i := 0; i < 3; i++ {
		for proc := 0; proc < p.alloc.Size(); proc++ {
			loop(proc)
		}
	}
	phase("all but two end")
	for proc := p.alloc.Size() - 1; proc >= 2; proc-- {
		end(proc)
	}
	for i := 0; i < p.alloc.Size()+2; i++ {
		loop(0)
		loop(1)
	}
	phase("alone again")
	end(1)
	for i := 0; i < p.alloc.Size()+2; i++ {
		loop(0)
	}
	end(0)
	phase("end")
	return log
}
