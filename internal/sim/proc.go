//cellmg:deterministic
package sim

import "fmt"

type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

// Proc is a simulated process. Its body runs as a coroutine of the engine
// (iter.Pull): RunUntil switches to it directly, it switches back when it
// suspends, and exactly one of the two is ever executing, so process code
// never needs host-level synchronization to protect simulation state.
//
// All blocking methods (Delay, Sleep, block) must only be called from within
// the process' own body.
type Proc struct {
	eng        *Engine
	name       string
	id         int
	resume     func() (struct{}, bool) // engine side: run the body until it suspends or returns
	yield      func(struct{}) bool     // body side: suspend; false once Close has stopped the process
	stop       func()
	state      procState
	wakeReason any

	// Accounting, maintained by the primitives for convenience of the
	// machine models: total time the process has spent in Delay calls.
	busy Duration
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns a unique, densely allocated identifier for the process.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine that owns the process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// BusyTime returns the cumulative virtual time this process has spent in
// Delay calls. Machine models use Delay to represent actual computation or
// occupancy, so BusyTime doubles as a utilization counter.
func (p *Proc) BusyTime() Duration { return p.busy }

//cellmg:hotpath-safe -- never returns
func (p *Proc) statePanic(what string) {
	panic(fmt.Sprintf("sim: process %q %s (state=%d)", p.name, what, p.state))
}

// suspend hands control back to the engine until it resumes this process.
//
//cellmg:hotpath
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(stopped{}) //cellmg:allow hotpathalloc -- a zero-size value; taken once, when Close ends the process
	}
}

// block suspends the process until another entity wakes it via Engine.wake,
// and returns the reason value supplied by the waker.
//
//cellmg:hotpath
func (p *Proc) block() any {
	if p.state != stateRunning {
		p.statePanic("blocks while not running")
	}
	p.state = stateBlocked
	p.wakeReason = nil
	p.suspend()
	return p.wakeReason
}

// sleepUntil moves the process to the absolute time at. If that wake-up is
// what the engine would dispatch next — within RunUntil's limit, every queued
// event strictly later — the clock advances in place and the process keeps
// running: no event, no switch, the same order (see the package comment).
//
//cellmg:hotpath
func (p *Proc) sleepUntil(at Time) {
	e := p.eng
	if p.state != stateRunning {
		p.statePanic("sleeps while not running")
	}
	if at <= e.limit && (len(e.queue) == 0 || e.queue[0].at > at) {
		e.seq++
		e.now = at
		return
	}
	p.state = stateReady
	e.schedule(event{at: at, proc: p})
	p.suspend()
}

// Delay advances the process by d units of virtual time, modelling the
// process being busy for that long. Negative durations are treated as zero.
//
//cellmg:hotpath
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		d = 0
	}
	p.busy += d
	p.sleepUntil(p.eng.now + Time(d))
}

// Sleep suspends the process for d units of virtual time without counting the
// time as busy. Use it for idle waiting loops and polling intervals.
//
//cellmg:hotpath
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sleepUntil(p.eng.now + Time(d))
}

// Yield reschedules the process at the current instant, behind every event
// already pending for this instant. It models giving other ready entities a
// chance to run without advancing time.
func (p *Proc) Yield() { p.Sleep(0) }

// WaitUntil suspends the process until the absolute virtual time t. If t is
// in the past the call returns immediately.
func (p *Proc) WaitUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t.Sub(p.eng.now))
}
