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

// Proc is a simulated process, a state machine whose step function the
// engine calls (see the package comment). The primitives must only be called
// from within the process' own step function.
type Proc struct {
	eng   *Engine
	name  string // for Engine.Blocked and panic messages
	id    int
	step  func(p *Proc)
	state procState
}

// ID returns a unique, densely allocated identifier for the process.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

func (p *Proc) statePanic(what string) {
	panic(fmt.Sprintf("sim: process %q %s (state=%d)", p.name, what, p.state))
}

// park marks the process blocked; the caller has put it on a waiter list,
// whose owner wakes it via Engine.wake.
func (p *Proc) park() {
	if p.state != stateRunning {
		p.statePanic("blocks while not running")
	}
	p.state = stateBlocked
}

// Sleep keeps the process busy for d of virtual time. If the wake-up d from
// now is what the engine would dispatch next — within RunUntil's limit, every
// queued event strictly later — the clock advances in place and Sleep reports
// true: no event, no return to the engine, the same order (see the package
// comment). Otherwise the process is parked until then and Sleep reports
// false; the woken process carries on after the sleep. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d Duration) bool {
	e := p.eng
	if p.state != stateRunning {
		p.statePanic("delays while not running")
	}
	if d < 0 {
		d = 0
	}
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
