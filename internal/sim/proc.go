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
// The blocking methods (Delay, block) must only be called from within the
// process' own body.
type Proc struct {
	eng    *Engine
	name   string // for Engine.Blocked and panic messages
	id     int
	resume func() (struct{}, bool) // engine side: run the body until it suspends or returns
	yield  func(struct{}) bool     // body side: suspend; false once Close has stopped the process
	stop   func()
	state  procState

	// Accounting, maintained by the primitives for convenience of the
	// machine models: total time the process has spent in Delay calls.
	busy Duration
}

// ID returns a unique, densely allocated identifier for the process.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// BusyTime returns the cumulative virtual time this process has spent in
// Delay calls. Machine models use Delay to represent actual computation or
// occupancy, so BusyTime doubles as a utilization counter.
func (p *Proc) BusyTime() Duration { return p.busy }

func (p *Proc) statePanic(what string) {
	panic(fmt.Sprintf("sim: process %q %s (state=%d)", p.name, what, p.state))
}

// suspend hands control back to the engine until it resumes this process.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// block suspends the process until another entity wakes it via Engine.wake.
func (p *Proc) block() {
	if p.state != stateRunning {
		p.statePanic("blocks while not running")
	}
	p.state = stateBlocked
	p.suspend()
}

// Delay advances the process by d units of virtual time, modelling the
// process being busy for that long. Negative durations are treated as zero.
// If the wake-up is what the engine would dispatch next — within RunUntil's
// limit, every queued event strictly later — the clock advances in place and
// the process keeps running: no event, no switch, the same order (see the
// package comment).
func (p *Proc) Delay(d Duration) {
	e := p.eng
	if p.state != stateRunning {
		p.statePanic("delays while not running")
	}
	if d < 0 {
		d = 0
	}
	p.busy += d
	at := e.now + Time(d)
	if at <= e.limit && (len(e.queue) == 0 || e.queue[0].at > at) {
		e.seq++
		e.now = at
		return
	}
	p.state = stateReady
	e.schedule(event{at: at, proc: p})
	p.suspend()
}
