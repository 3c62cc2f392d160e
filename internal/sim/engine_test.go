package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	eng := NewEngine()
	if eng.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", eng.Now())
	}
}

func TestDelayAdvancesClock(t *testing.T) {
	eng := NewEngine()
	var end Time
	eng.Spawn("p", func(p *Proc) {
		p.Delay(5 * Microsecond)
		p.Delay(7 * Microsecond)
		end = p.Now()
	})
	final := eng.Run()
	if end != Time(12*Microsecond) {
		t.Errorf("process observed end time %v, want 12us", end)
	}
	if final != Time(12*Microsecond) {
		t.Errorf("engine final time %v, want 12us", final)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	eng := NewEngine()
	idle := NewSignal(eng)
	pp := eng.Spawn("p", func(p *Proc) {
		p.Delay(3 * Microsecond)
		idle.FireAfter(10 * Microsecond)
		idle.Wait(p) // waiting, not busy
		p.Delay(2 * Microsecond)
	})
	if final := eng.Run(); final != Time(15*Microsecond) {
		t.Errorf("finished at %v, want 15us", final)
	}
	if pp.BusyTime() != 5*Microsecond {
		t.Errorf("busy time = %v, want 5us", pp.BusyTime())
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		eng.Spawn(name, func(p *Proc) {
			p.Delay(10 * Microsecond) // all wake at the same instant
			order = append(order, name)
		})
	}
	eng.Run()
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		eng := NewEngine()
		q := NewQueue[int](eng)
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			eng.Spawn("producer", func(p *Proc) {
				p.Delay(Duration(i+1) * Microsecond)
				q.Put(i)
			})
		}
		for i := 0; i < 3; i++ {
			i := i
			eng.Spawn("consumer", func(p *Proc) {
				v := q.Get(p)
				log = append(log, string(rune('a'+i))+string(rune('0'+v)))
			})
		}
		eng.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("replay %d produced %v, first run produced %v", trial, got, first)
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("replay %d diverged: %v vs %v", trial, got, first)
			}
		}
	}
}

func TestSpawnDuringRun(t *testing.T) {
	eng := NewEngine()
	var childRanAt Time
	eng.Spawn("parent", func(p *Proc) {
		p.Delay(4 * Microsecond)
		eng.Spawn("child", func(c *Proc) {
			c.Delay(1 * Microsecond)
			childRanAt = c.Now()
		})
		p.Delay(10 * Microsecond)
	})
	eng.Run()
	if childRanAt != Time(5*Microsecond) {
		t.Errorf("child finished at %v, want 5us", childRanAt)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	eng := NewEngine()
	var reached []Time
	eng.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Delay(10 * Microsecond)
			reached = append(reached, p.Now())
		}
	})
	final := eng.RunUntil(Time(35 * Microsecond))
	if final != Time(35*Microsecond) {
		t.Errorf("final time = %v, want 35us", final)
	}
	if len(reached) != 3 {
		t.Errorf("process completed %d steps before the limit, want 3", len(reached))
	}
	// Resuming must pick up where we stopped.
	eng.Run()
	if len(reached) != 10 {
		t.Errorf("after resuming, process completed %d steps, want 10", len(reached))
	}
}

func TestBlockedReportsDeadlockedProcesses(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Spawn("stuck", func(p *Proc) { q.Get(p) })
	eng.Spawn("fine", func(p *Proc) { p.Delay(Microsecond) })
	eng.SpawnStep("stuck step", func(p *Proc) { q.TryGet(p) })
	slept := false
	eng.SpawnStep("fine step", func(p *Proc) {
		if !slept {
			slept = true
			p.Sleep(Microsecond)
		}
	})
	eng.Run()
	blocked := eng.Blocked()
	if len(blocked) != 2 || blocked[0] != "stuck" || blocked[1] != "stuck step" {
		t.Errorf("blocked = %v, want [stuck stuck step]", blocked)
	}
	if eng.Live() != 2 {
		t.Errorf("live = %d, want 2", eng.Live())
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{96 * Microsecond, "96us"},
		{10 * Millisecond, "10ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: for any set of delays, the engine's final clock equals the
// maximum total delay among processes, and every process observes
// monotonically non-decreasing time.
func TestPropertyFinalClockIsMaxDelay(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 || len(delaysRaw) > 32 {
			return true
		}
		eng := NewEngine()
		var max Duration
		monotonic := true
		for _, raw := range delaysRaw {
			d := Duration(raw) * Nanosecond
			if d > max {
				max = d
			}
			eng.Spawn("p", func(p *Proc) {
				prev := p.Now()
				half := d / 2
				p.Delay(half)
				if p.Now() < prev {
					monotonic = false
				}
				p.Delay(d - half)
			})
		}
		final := eng.Run()
		return monotonic && final == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("p", func(p *Proc) { p.Delay(10 * Microsecond) })
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling an event in the past should panic")
		}
	}()
	NewSignal(eng).FireAfter(-Microsecond)
}
