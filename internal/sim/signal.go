package sim

// Signal is a one-shot broadcast event: processes park in Await until Fire is
// called, after which Await reports true at once for all current and future
// callers. It models completion notifications (a DMA transfer finished, an
// off-loaded task completed). The signal's owner may Rearm it once it has
// fired and nobody waits on it, and use it for the next notification instead
// of a new one.
type Signal struct {
	eng   *Engine
	fired bool
	// Nearly every signal has exactly one waiter, which lives in the signal
	// itself; only the others cost a slice.
	first *Proc
	more  []*Proc
}

// NewSignal creates an unfired signal.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal as fired and wakes every waiting process. Calling
// Fire more than once is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first != nil {
		s.eng.wake(s.first)
	}
	for _, p := range s.more {
		s.eng.wake(p)
	}
	s.first, s.more = nil, nil
}

// Rearm makes the signal unfired again, so that its owner can reuse it for
// the next notification without allocating one. It panics if a process is
// waiting on the signal. A FireAfter still pending fires the rearmed signal:
// the owner rearms only a signal whose firing it has seen.
func (s *Signal) Rearm() {
	if s.first != nil {
		panic("sim: rearming a signal a process is waiting on")
	}
	s.fired = false
}

// FireAfter fires the signal d from now; the firing is an event of its own,
// so it needs no process, closure or handle.
func (s *Signal) FireAfter(d Duration) { s.eng.schedule(event{at: s.eng.now.Add(d), sig: s}) }

// Await reports true if the signal has fired, or else parks the calling
// process as a waiter and reports false. A woken waiter that asks again is
// answered true.
func (s *Signal) Await(p *Proc) bool {
	switch {
	case s.fired:
		return true
	case s.first == nil:
		s.first = p
	default:
		s.more = append(s.more, p) // the rare second waiter of a broadcast
	}
	p.park()
	return false
}

// Condition is a reusable wait/notify primitive: processes park in Await
// until the condition is notified; each Notify wakes all processes waiting at
// that moment and leaves the condition armed for future waiters. Unlike
// Signal it never latches.
type Condition struct {
	eng     *Engine
	waiters ring[*Proc]
}

// NewCondition creates a condition with no waiters.
func NewCondition(eng *Engine) *Condition { return &Condition{eng: eng} }

// Waiting returns the number of processes currently parked in Await.
func (c *Condition) Waiting() int { return c.waiters.n }

// Await parks the calling process until the next Notify or NotifyOne that
// includes it; the woken process carries on after the wait.
func (c *Condition) Await(p *Proc) {
	c.waiters.pushBack(p)
	p.park()
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
	c.eng.wake(c.waiters.popFront())
	return true
}
