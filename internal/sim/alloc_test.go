package sim

import (
	"runtime"
	"testing"
)

// steadyStateAllocs runs step in a process that first warms up (heap, rings
// and the other processes reach their peak sizes) and then measures it with
// testing.AllocsPerRun from inside the simulation; *measuring turns false when
// it is done, which is what the rival processes loop on.
func steadyStateAllocs(eng *Engine, measuring *bool, step func(p *Proc)) float64 {
	defer eng.Close()
	var avg float64
	*measuring = true
	eng.Spawn("measured", func(p *Proc) {
		for i := 0; i < 64; i++ {
			step(p)
		}
		avg = testing.AllocsPerRun(200, func() { step(p) })
		*measuring = false
	})
	eng.Run()
	return avg
}

// TestEventPathAllocationFree is what keeps the event path allocation-free:
// in steady state a timed wake-up (queued behind other processes' events, so it
// takes the heap, both sift directions and a coroutine switch, not the inline
// advance), a RunUntil that stops at its limit, a queue hand-off, a contended
// Resource hold and a broadcast signal fired by a scheduled event allocate
// nothing — the arms a steady simulation rarely takes included.
func TestEventPathAllocationFree(t *testing.T) {
	var measuring bool
	t.Run("delay", func(t *testing.T) {
		eng := NewEngine()
		for _, d := range []Duration{3, 5, 7, 11} {
			eng.Spawn("other", func(p *Proc) {
				for measuring {
					p.Delay(d)
				}
			})
		}
		step := func(p *Proc) {
			p.Delay(2)
			p.Delay(-1) // a negative delay is a zero one
		}
		if avg := steadyStateAllocs(eng, &measuring, step); avg != 0 {
			t.Errorf("Delay allocates %.1f objects per call", avg)
		}
	})
	t.Run("limit", func(t *testing.T) {
		eng := NewEngine()
		defer eng.Close()
		ticks := 0
		eng.Spawn("ticker", func(p *Proc) {
			for {
				p.Delay(10)
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
				out.Put(in.Get(p))
			}
		})
		step := func(p *Proc) {
			in.Put(1)
			out.Get(p)
		}
		if avg := steadyStateAllocs(eng, &measuring, step); avg != 0 {
			t.Errorf("a queue round trip allocates %.1f objects", avg)
		}
	})
	t.Run("resource", func(t *testing.T) {
		eng := NewEngine()
		res := NewResource(eng, "res", 1)
		hold := func(p *Proc) {
			res.Acquire(p, 1)
			res.Acquire(p, 0) // no units, no wait
			p.Delay(2)
			res.Release(0)
			res.Release(1)
		}
		for i := 0; i < 3; i++ {
			eng.Spawn("rival", func(p *Proc) {
				for measuring {
					hold(p)
				}
			})
		}
		if avg := steadyStateAllocs(eng, &measuring, hold); avg != 0 {
			t.Errorf("a contended Resource hold allocates %.1f objects", avg)
		}
	})
	t.Run("signal", func(t *testing.T) {
		eng := NewEngine()
		signals := make([]Signal, 64+201) // warm-up + AllocsPerRun's own warm-up + 200 runs
		// A second waiter costs its signal a slice (Signal.Wait's append), so
		// each signal is handed room for one here: the guard is on everything
		// around that append, Fire's loop over the extra waiters included.
		room := make([]*Proc, len(signals))
		also := NewQueue[*Signal](eng)
		eng.Spawn("second", func(p *Proc) {
			for {
				also.Get(p).Wait(p)
			}
		})
		next := 0
		step := func(p *Proc) {
			s := &signals[next]
			s.eng, s.more = eng, room[next:next:next+1]
			next++
			also.Put(s)
			s.FireAfter(5)
			s.Wait(p)
			s.Wait(p) // already fired
			s.Fire()  // a second firing is a no-op
		}
		if avg := steadyStateAllocs(eng, &measuring, step); avg != 0 {
			t.Errorf("a signal fire/wait allocates %.1f objects", avg)
		}
	})

	// The state-machine arms: step processes only, so a wake-up is a call.
	t.Run("step sleep", func(t *testing.T) {
		eng := NewEngine()
		for _, d := range []Duration{2, 3, 5, 7} {
			eng.SpawnStep("sleeper", func(p *Proc) {
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
		eng.SpawnStep("awaiter", func(p *Proc) {
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
			eng.SpawnStep("holder", func(p *Proc) {
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
		eng.SpawnStep("echo", func(p *Proc) {
			for {
				v, ok := in.TryGet(p)
				if !ok {
					return
				}
				out.Put(v)
			}
		})
		phase := 0
		eng.SpawnStep("driver", func(p *Proc) {
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

// TestCloseStopsSuspendedProcesses: Close unwinds every process that has not
// returned — blocked forever, asleep, or never started, coroutine or state
// machine — running a coroutine's deferred functions, leaves no coroutine
// behind, is idempotent, and makes Spawn and SpawnStep panic.
func TestCloseStopsSuspendedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := NewEngine()
	q := NewQueue[int](eng)
	unwound := 0
	eng.Spawn("server", func(p *Proc) {
		defer func() { unwound++ }()
		for {
			q.Get(p)
		}
	})
	eng.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Delay(Second)
	})
	eng.SpawnStep("step server", func(p *Proc) {
		for {
			if _, ok := q.TryGet(p); !ok {
				return
			}
		}
	})
	eng.SpawnStep("step sleeper", func(p *Proc) {
		if !p.Sleep(Second) {
			return
		}
		t.Error("a step process asleep past the last RunUntil must never run again")
	})
	eng.RunUntil(10)
	eng.Spawn("unstarted", func(p *Proc) { t.Error("a process spawned after the last RunUntil must never run") })
	eng.SpawnStep("step unstarted", func(p *Proc) { t.Error("a step process spawned after the last RunUntil must never run") })
	if eng.Live() != 6 {
		t.Fatalf("live = %d before Close, want 6", eng.Live())
	}
	eng.Close()
	eng.Close()
	if unwound != 2 || eng.Live() != 0 || len(eng.Blocked()) != 0 {
		t.Errorf("after Close: %d bodies unwound (want 2), live = %d, blocked = %v", unwound, eng.Live(), eng.Blocked())
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before the simulation, %d after Close", before, after)
	}
	for name, spawn := range map[string]func(){
		"Spawn":     func() { eng.Spawn("late", func(p *Proc) {}) },
		"SpawnStep": func() { eng.SpawnStep("late", func(p *Proc) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a closed engine should panic", name)
				}
			}()
			spawn()
		}()
	}
}

// TestProcessPanicSurfacesInRun: a failure in a process body or a step
// function is not swallowed — by the wrapper that recovers Close's private
// unwinding value, or by the engine that calls the step — and reaches the
// goroutine that called Run, where it can be recovered.
func TestProcessPanicSurfacesInRun(t *testing.T) {
	for _, stepKind := range []bool{false, true} {
		eng := NewEngine()
		eng.Spawn("bystander", func(p *Proc) { p.Delay(Second) })
		if stepKind {
			slept := false
			eng.SpawnStep("faulty", func(p *Proc) {
				if !slept {
					slept = true
					if !p.Sleep(5) {
						return
					}
				}
				panic("model bug")
			})
		} else {
			eng.Spawn("faulty", func(p *Proc) {
				p.Delay(5)
				panic("model bug")
			})
		}
		func() {
			defer eng.Close()
			defer func() {
				if r := recover(); r != "model bug" {
					t.Errorf("step process %v: Run's caller recovered %v, want the process's own panic value", stepKind, r)
				}
			}()
			eng.Run()
			t.Errorf("step process %v: Run returned although a process panicked", stepKind)
		}()
	}
}
