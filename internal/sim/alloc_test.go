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
}

// TestCloseStopsSuspendedProcesses: Close unwinds every process that has not
// returned — blocked forever, asleep, or never started — running its deferred
// functions, leaves no coroutine behind, is idempotent, and makes Spawn panic.
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
	eng.RunUntil(10)
	eng.Spawn("unstarted", func(p *Proc) { t.Error("a process spawned after the last RunUntil must never run") })
	if eng.Live() != 3 {
		t.Fatalf("live = %d before Close, want 3", eng.Live())
	}
	eng.Close()
	eng.Close()
	if unwound != 2 || eng.Live() != 0 || len(eng.Blocked()) != 0 {
		t.Errorf("after Close: %d bodies unwound (want 2), live = %d, blocked = %v", unwound, eng.Live(), eng.Blocked())
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

// TestProcessPanicSurfacesInRun: a failure in a process body is not swallowed
// by the wrapper that recovers Close's private unwinding value; it reaches the
// goroutine that called Run, where it can be recovered.
func TestProcessPanicSurfacesInRun(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	eng.Spawn("bystander", func(p *Proc) { p.Delay(Second) })
	eng.Spawn("faulty", func(p *Proc) {
		p.Delay(5)
		panic("model bug")
	})
	defer func() {
		if r := recover(); r != "model bug" {
			t.Errorf("Run's caller recovered %v, want the process's own panic value", r)
		}
	}()
	eng.Run()
	t.Errorf("Run returned although a process panicked")
}
