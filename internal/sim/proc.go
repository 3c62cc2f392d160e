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

// Proc is a simulated process: a coroutine of the engine (Engine.Spawn) or a
// state machine the engine calls (Engine.SpawnStep); see the package comment.
// The blocking primitives (Delay, Wait, Acquire, Get) are for a coroutine's
// body; their non-blocking halves (Sleep, Await, TryAcquire, TryGet), which
// report false once they have parked the process, serve both kinds. Either
// must only be called from within the process' own body or step function.
type Proc struct {
	eng    *Engine
	name   string // for Engine.Blocked and panic messages
	id     int
	step   func(p *Proc)           // a step process' step function; nil for a coroutine
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

// park marks the process blocked; the caller has put it on a waiter list,
// whose owner wakes it via Engine.wake.
func (p *Proc) park() {
	if p.state != stateRunning {
		p.statePanic("blocks while not running")
	}
	p.state = stateBlocked
}

// Sleep is Delay's non-blocking half. If the wake-up d from now is what the
// engine would dispatch next — within RunUntil's limit, every queued event
// strictly later — the clock advances in place and Sleep reports true: the
// process carries on, no event, no switch, the same order (see the package
// comment). Otherwise the wake-up is queued, the process is parked until then
// and Sleep reports false. Negative durations are treated as zero.
func (p *Proc) Sleep(d Duration) bool {
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
		return true
	}
	p.state = stateReady
	e.schedule(event{at: at, proc: p})
	return false
}

// Delay advances the process by d units of virtual time, modelling the
// process being busy for that long.
func (p *Proc) Delay(d Duration) {
	if !p.Sleep(d) {
		p.suspend()
	}
}
