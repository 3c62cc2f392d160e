package sim

import (
	"runtime"
	"testing"
)

// TestEventPathAllocationFree is what keeps the event path allocation-free:
// in steady state a timed wake-up (queued behind other processes' events, so
// it takes the heap and both sift directions, not only the inline advance), a
// RunUntil that stops at its limit, a queue hand-off, a contended Resource
// hold, a signal fired by a scheduled event and a rearmed one allocate
// nothing. A wake-up is a call of the step function, so each arm measures
// whole slices of virtual time. The step arms run each primitive on its
// common inputs; the other arms add the ones a steady simulation rarely
// takes: a negative Sleep, a burst that leaves a backlog in a queue, a
// zero-unit TryAcquire and Release and a Release that admits two waiters at
// once, a broadcast's second waiter, an Await after the firing and a second
// Fire, and one signal rearmed for every firing.
func TestEventPathAllocationFree(t *testing.T) {
	t.Run("delay", func(t *testing.T) {
		eng := NewEngine()
		for _, d := range []Duration{3, 5, 7, 11} {
			eng.Spawn("other", func(p *Proc) {
				for p.Sleep(d) {
				}
			})
		}
		next := Duration(-1)
		eng.Spawn("sleeper", func(p *Proc) {
			for {
				next = 1 - next // 2, then -1: a negative sleep is a zero one
				if !p.Sleep(next) {
					return
				}
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a negative Sleep among queued ones allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("limit", func(t *testing.T) {
		eng := NewEngine()
		defer eng.Close()
		ticks, started := 0, false
		eng.Spawn("ticker", func(p *Proc) {
			if started {
				ticks++
			}
			started = true
			for p.Sleep(10) {
				ticks++
			}
		})
		if avg := testing.AllocsPerRun(200, func() { eng.RunUntil(eng.Now() + 5) }); avg != 0 || ticks != 100 {
			t.Errorf("RunUntil allocates %.1f objects per 5 ns slice; %d ticks in 201 slices, want 100", avg, ticks)
		}
	})
	t.Run("queue", func(t *testing.T) {
		eng := NewEngine()
		in, out := NewQueue[int](eng), NewQueue[int](eng)
		eng.Spawn("echo", func(p *Proc) {
			for {
				v, ok := in.TryGet(p)
				if !ok {
					return
				}
				out.Put(v)
			}
		})
		pending := 0
		eng.Spawn("driver", func(p *Proc) {
			for {
				if pending == 0 {
					// Three items at once: both queues hold a backlog, which
					// the step arm's one item at a time never builds.
					for v := range 3 {
						in.Put(v)
					}
					pending = 3
				}
				for pending > 0 {
					if _, ok := out.TryGet(p); !ok {
						return
					}
					pending--
				}
				if !p.Sleep(1) {
					return
				}
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a burst through two queues allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("resource", func(t *testing.T) {
		eng := NewEngine()
		// Two units; a two-unit holder's Release admits both one-unit
		// waiters queued behind it.
		res := NewResource(eng, "res", 2)
		for _, n := range []int{2, 1, 1, 2} {
			phase := 0
			eng.Spawn("holder", func(p *Proc) {
				for {
					switch phase {
					case 0:
						phase = 1
						if !res.TryAcquire(p, n) {
							return
						}
						fallthrough
					case 1:
						phase = 2
						if !res.TryAcquire(p, 0) { // no units, no wait
							t.Error("a zero-unit TryAcquire parked")
							return
						}
						if !p.Sleep(2) {
							return
						}
					}
					res.Release(0)
					res.Release(n)
					phase = 0
				}
			})
		}
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a contended two-unit Resource allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("signal", func(t *testing.T) {
		eng := NewEngine()
		// A second waiter costs its signal a slice (Await's append), so each
		// signal is handed room for one here: the guard is on everything
		// around that append, Fire's loop over the extra waiters included.
		// Two signals take turns, so the one the second waiter still holds
		// is never re-armed under it.
		var signals [2]Signal
		room := make([]*Proc, 0, 1)
		also := NewQueue[*Signal](eng)
		var held *Signal
		eng.Spawn("second", func(p *Proc) {
			for {
				if held == nil {
					s, ok := also.TryGet(p)
					if !ok {
						return
					}
					held = s
				}
				if !held.Await(p) {
					return
				}
				held = nil
			}
		})
		var sig *Signal
		armed := 0
		eng.Spawn("awaiter", func(p *Proc) {
			for {
				if sig == nil {
					sig = &signals[armed%2]
					*sig = Signal{eng: eng, more: room}
					armed++
					also.Put(sig)
					sig.FireAfter(5)
				}
				if !sig.Await(p) {
					return
				}
				if !sig.Await(p) {
					t.Error("Await parked on a fired signal")
					return
				}
				sig.Fire() // a second firing is a no-op
				sig = nil
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a broadcast FireAfter/Await allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("rearm", func(t *testing.T) {
		eng := NewEngine()
		// One signal for good, as an off-load's issuer keeps its done
		// signal: rearmed, fired by a scheduled event, awaited.
		sig := NewSignal(eng)
		armed := false
		eng.Spawn("owner", func(p *Proc) {
			for {
				if !armed {
					sig.Rearm()
					sig.FireAfter(5)
					armed = true
				}
				if !sig.Await(p) {
					return
				}
				armed = false
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a rearmed signal's FireAfter/Await allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("step sleep", func(t *testing.T) {
		eng := NewEngine()
		for _, d := range []Duration{2, 3, 5, 7} {
			eng.Spawn("sleeper", func(p *Proc) {
				for p.Sleep(d) {
				}
			})
		}
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a queued Sleep allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("step await", func(t *testing.T) {
		eng := NewEngine()
		var sig Signal
		armed := false
		eng.Spawn("awaiter", func(p *Proc) {
			for {
				if !armed {
					sig, armed = Signal{eng: eng}, true
					sig.FireAfter(5)
				}
				if !sig.Await(p) {
					return
				}
				armed = false
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a signal FireAfter/Await allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("step tryacquire", func(t *testing.T) {
		eng := NewEngine()
		res := NewResource(eng, "res", 1)
		for i := 0; i < 4; i++ {
			phase := 0
			eng.Spawn("holder", func(p *Proc) {
				for {
					switch phase {
					case 0:
						phase = 1
						if !res.TryAcquire(p, 1) {
							return
						}
						fallthrough
					case 1:
						phase = 2
						if !p.Sleep(2) {
							return
						}
					}
					res.Release(1)
					phase = 0
				}
			})
		}
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a contended TryAcquire allocates %.1f objects per 50 ns slice", avg)
		}
	})
	t.Run("step tryget", func(t *testing.T) {
		eng := NewEngine()
		in, out := NewQueue[int](eng), NewQueue[int](eng)
		eng.Spawn("echo", func(p *Proc) {
			for {
				v, ok := in.TryGet(p)
				if !ok {
					return
				}
				out.Put(v)
			}
		})
		phase := 0
		eng.Spawn("driver", func(p *Proc) {
			for {
				if phase == 0 {
					in.Put(1)
					phase = 1
				}
				if _, ok := out.TryGet(p); !ok {
					return
				}
				phase = 0
				if !p.Sleep(1) {
					return
				}
			}
		})
		if avg := steadyRunAllocs(eng, 50); avg != 0 {
			t.Errorf("a TryGet hand-off allocates %.1f objects per 50 ns slice", avg)
		}
	})
}

// steadyRunAllocs measures a simulation of step processes: it runs eng until
// its heap and rings have reached their peak sizes, then counts what RunUntil
// allocates over further slices of virtual time.
func steadyRunAllocs(eng *Engine, slice Duration) float64 {
	defer eng.Close()
	eng.RunUntil(eng.Now().Add(64 * slice))
	return testing.AllocsPerRun(200, func() { eng.RunUntil(eng.Now().Add(slice)) })
}

// TestCloseStopsSuspendedProcesses: Close ends every process that has not
// returned — parked forever, asleep, or never started — leaves no goroutine
// behind, is idempotent, and makes Spawn panic.
func TestCloseStopsSuspendedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Spawn("server", func(p *Proc) {
		for {
			if _, ok := q.TryGet(p); !ok {
				return
			}
		}
	})
	eng.Spawn("sleeper", func(p *Proc) {
		if !p.Sleep(Second) {
			return
		}
		t.Error("a process asleep past the last RunUntil must never run again")
	})
	eng.RunUntil(10)
	eng.Spawn("unstarted", func(p *Proc) { t.Error("a process spawned after the last RunUntil must never run") })
	if eng.Live() != 3 {
		t.Fatalf("live = %d before Close, want 3", eng.Live())
	}
	eng.Close()
	eng.Close()
	if eng.Live() != 0 || len(eng.Blocked()) != 0 {
		t.Errorf("after Close: live = %d, blocked = %v", eng.Live(), eng.Blocked())
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the simulation, %d after Close", before, after)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Spawn on a closed engine should panic")
		}
	}()
	eng.Spawn("late", func(p *Proc) {})
}

// TestProcessPanicSurfacesInRun: a failure in a step function is not
// swallowed by the engine that calls it, and reaches the goroutine that
// called Run, where it can be recovered.
func TestProcessPanicSurfacesInRun(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	script{sleep(Second)}.spawn(eng, "bystander")
	script{
		sleep(5),
		do(func(*Proc) { panic("model bug") }),
	}.spawn(eng, "faulty")
	defer func() {
		if r := recover(); r != "model bug" {
			t.Errorf("Run's caller recovered %v, want the process's own panic value", r)
		}
	}()
	eng.Run()
	t.Errorf("Run returned although a process panicked")
}
