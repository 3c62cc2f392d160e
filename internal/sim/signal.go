//cellmg:deterministic
package sim

// Signal is a one-shot broadcast event: processes block in Wait until Fire is
// called, after which Wait returns immediately for all current and future
// callers. It models completion notifications (a DMA transfer finished, an
// off-loaded task completed).
type Signal struct {
	eng   *Engine
	fired bool
	value any
	// Nearly every signal has exactly one waiter, which lives in the signal
	// itself; only the others cost a slice.
	first *Proc
	more  []*Proc
}

// NewSignal creates an unfired signal.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Value returns the value passed to FireValue, or nil.
func (s *Signal) Value() any { return s.value }

// Fire marks the signal as fired and wakes every waiting process. Calling
// Fire more than once is a no-op.
//
//cellmg:hotpath
func (s *Signal) Fire() { s.FireValue(nil) }

// FireAfter fires the signal d from now: After(d, s.Fire) without a closure,
// a callback or a handle.
func (s *Signal) FireAfter(d Duration) { s.eng.schedule(event{at: s.eng.now.Add(d), sig: s}) }

// FireValue fires the signal carrying a value that waiters can retrieve with
// Value.
//
//cellmg:hotpath
func (s *Signal) FireValue(v any) {
	if s.fired {
		return
	}
	s.fired = true
	s.value = v
	if s.first != nil {
		s.eng.wake(s.first, v)
	}
	for _, p := range s.more {
		s.eng.wake(p, v)
	}
	s.first, s.more = nil, nil
}

// Wait blocks the calling process until the signal fires. If it has already
// fired, Wait returns immediately.
//
//cellmg:hotpath
func (s *Signal) Wait(p *Proc) any {
	switch {
	case s.fired:
		return s.value
	case s.first == nil:
		s.first = p
	default:
		s.more = append(s.more, p) //cellmg:allow hotpathalloc -- the rare second waiter of a broadcast
	}
	return p.block()
}

// Condition is a reusable wait/notify primitive: processes wait for the
// condition to be notified; each Notify wakes all processes waiting at that
// moment and leaves the condition armed for future waiters. Unlike Signal it
// never latches.
type Condition struct {
	eng     *Engine
	waiters ring[*Proc]
}

// NewCondition creates a condition with no waiters.
func NewCondition(eng *Engine) *Condition { return &Condition{eng: eng} }

// Waiting returns the number of processes currently blocked in Wait.
func (c *Condition) Waiting() int { return c.waiters.n }

// Wait blocks the calling process until the next Notify or NotifyOne that
// includes it.
func (c *Condition) Wait(p *Proc) {
	c.waiters.pushBack(p)
	p.block()
}

// Notify wakes every process currently waiting.
func (c *Condition) Notify() {
	for c.NotifyOne() {
	}
}

// NotifyOne wakes the oldest waiting process, if any, and reports whether a
// process was woken.
func (c *Condition) NotifyOne() bool {
	if c.waiters.n == 0 {
		return false
	}
	c.eng.wake(c.waiters.popFront(), nil)
	return true
}

// Barrier blocks processes until a fixed number of parties have arrived, then
// releases them all and resets for the next round. It models the join point
// of a work-sharing construct.
type Barrier struct {
	eng     *Engine
	parties int
	arrived int
	waiters []*Proc
	rounds  int
}

// NewBarrier creates a barrier for the given number of parties (> 0).
func NewBarrier(eng *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{eng: eng, parties: parties}
}

// Rounds returns how many times the barrier has tripped.
func (b *Barrier) Rounds() int { return b.rounds }

// Arrive blocks the calling process until all parties have arrived. The last
// arriving process does not block; it trips the barrier and wakes the others.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.rounds++
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			b.eng.wake(w, nil)
		}
		return
	}
	b.waiters = append(b.waiters, p)
	p.block()
}
