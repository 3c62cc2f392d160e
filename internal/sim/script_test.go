package sim

// A script is a test process written as a list of ops run in order, the way
// a simulated SPE runs a program. An op reports false once it has parked the
// process; the process' next call re-enters the op it parked in, and an op
// re-entered after its wake-up reports true. Signal.Await keeps that rule by
// itself; once, take and do give it to the other primitives and to plain
// code.
type script []func(p *Proc) bool

// spawn starts the script as a process of eng.
func (s script) spawn(eng *Engine, name string) *Proc {
	pc := 0
	return eng.Spawn(name, func(p *Proc) {
		for ; pc < len(s); pc++ {
			if !s[pc](p) {
				return
			}
		}
	})
}

// once is an op that calls park the first time and reports true from then
// on: Sleep, TryAcquire and Condition.Await, whose wake-up ends the wait.
func once(park func(p *Proc) bool) func(p *Proc) bool {
	called := false
	return func(p *Proc) bool {
		if called {
			return true
		}
		called = true
		return park(p)
	}
}

func sleep(d Duration) func(p *Proc) bool {
	return once(func(p *Proc) bool { return p.Sleep(d) })
}

func acquire(r *Resource, n int) func(p *Proc) bool {
	return once(func(p *Proc) bool { return r.TryAcquire(p, n) })
}

func wait(c *Condition) func(p *Proc) bool {
	return once(func(p *Proc) bool { c.Await(p); return false })
}

// take is TryGet as an op: it hands the item to got.
func take[T any](q *Queue[T], got func(v T)) func(p *Proc) bool {
	return func(p *Proc) bool {
		v, ok := q.TryGet(p)
		if ok {
			got(v)
		}
		return ok
	}
}

// do runs f and carries on.
func do(f func(p *Proc)) func(p *Proc) bool {
	return func(p *Proc) bool { f(p); return true }
}
