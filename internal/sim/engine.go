package sim

import (
	"fmt"
	"sort"
)

// Time is an absolute instant of virtual time, measured in nanoseconds from
// the start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is kept as a distinct type so that simulated time can
// never be confused with wall-clock time.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a floating point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.6gus", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds returns the instant as a floating point number of seconds since the
// start of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the instant shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// event is one entry of the pending-event heap, held by value: the wake-up
// of a process or the firing of a signal. Nothing is ever cancelled, so an
// event has no storage outside the heap.
type event struct {
	at   Time
	seq  uint64
	proc *Proc   // process to resume, or
	sig  *Signal // signal to fire (Signal.FireAfter)
}

// before is the dispatch order: by time, then by scheduling order.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine owns the virtual clock, the event queue and all simulated processes.
// An Engine must be created with NewEngine and is not safe for concurrent use
// from multiple host goroutines: all interaction is expected to happen either
// before Run is called or from within simulated processes.
type Engine struct {
	now    Time
	limit  Time // the running RunUntil's limit
	seq    uint64
	queue  []event // binary min-heap ordered by event.before
	procs  []*Proc
	live   int
	closed bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule enqueues ev, stamped with the next sequence number.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%v now=%v)", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.queue = append(e.queue, ev) // grows to the peak of pending events, then never again
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	q := e.queue
	top, n := q[0], len(q)-1
	ev := q[n]
	q[n] = event{}
	e.queue = q[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && q[child+1].before(&q[child]) {
			child++
		}
		if !q[child].before(&ev) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = ev
	}
	return top
}

// Spawn creates a new process whose step function is step. It starts at the
// current virtual time, after all previously scheduled events for this
// instant: the engine calls step then and at every wake-up. Spawn may be
// called before Run (the process then starts at time zero) or at any point
// during the simulation, including from other processes.
func (e *Engine) Spawn(name string, step func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn after engine shut down")
	}
	p := &Proc{eng: e, name: name, id: len(e.procs) + 1, step: step}
	e.procs = append(e.procs, p)
	e.live++
	e.schedule(event{at: e.now, proc: p})
	return p
}

// Close ends the simulation and releases what the engine holds: every process
// that has not returned is ended where it is, and the event queue is dropped.
// Close is idempotent and must not be called from inside a process; a closed
// engine can be read (Now, Live) but not run.
func (e *Engine) Close() {
	e.closed = true
	for _, p := range e.procs {
		if p.state != stateDone {
			p.state = stateDone
			e.live--
		}
	}
	e.procs, e.queue = nil, nil
}

// wake schedules p to resume at the current virtual time (FIFO after events
// already scheduled for this instant). It is the mechanism used by queues,
// resources and signals to hand control back to a blocked process.
func (e *Engine) wake(p *Proc) {
	if p.state != stateBlocked {
		p.statePanic("woken while not blocked")
	}
	p.state = stateReady
	e.schedule(event{at: e.now, proc: p})
}

// Run executes events until the queue drains or every process has terminated.
// It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps not exceeding limit. If the event
// queue drains earlier, the clock stops at the last dispatched event;
// otherwise the clock is left at limit. A panic in a step function surfaces
// here, in the caller's goroutine.
func (e *Engine) RunUntil(limit Time) Time {
	e.limit = limit
	for len(e.queue) > 0 {
		if e.queue[0].at > limit {
			e.now = limit
			return e.now
		}
		ev := e.pop()
		e.now = ev.at
		p := ev.proc
		if p == nil {
			ev.sig.Fire()
			continue
		}
		p.state = stateRunning
		if p.step(p); p.state == stateRunning { // returned without parking: ended
			p.state = stateDone
			e.live--
		}
	}
	return e.now
}

// Blocked returns the names of processes that are still blocked, sorted.
// After Run returns, a non-empty result indicates a deadlock or processes
// waiting on external stimulus that never arrived; tests use this to assert a
// clean shutdown.
func (e *Engine) Blocked() []string {
	var names []string
	for _, p := range e.procs {
		if p.state == stateBlocked || p.state == stateReady {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Live returns the number of processes that have been spawned and have not
// yet terminated.
func (e *Engine) Live() int { return e.live }
