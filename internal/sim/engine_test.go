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
	script{
		sleep(5 * Microsecond),
		sleep(7 * Microsecond),
		do(func(p *Proc) { end = p.Now() }),
	}.spawn(eng, "p")
	final := eng.Run()
	if end != Time(12*Microsecond) {
		t.Errorf("process observed end time %v, want 12us", end)
	}
	if final != Time(12*Microsecond) {
		t.Errorf("engine final time %v, want 12us", final)
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		script{
			sleep(10 * Microsecond), // all wake at the same instant
			do(func(*Proc) { order = append(order, name) }),
		}.spawn(eng, name)
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
			script{
				sleep(Duration(i+1) * Microsecond),
				do(func(*Proc) { q.Put(i) }),
			}.spawn(eng, "producer")
		}
		for i := 0; i < 3; i++ {
			script{
				take(q, func(v int) { log = append(log, string(rune('a'+i))+string(rune('0'+v))) }),
			}.spawn(eng, "consumer")
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
	script{
		sleep(4 * Microsecond),
		do(func(*Proc) {
			script{
				sleep(1 * Microsecond),
				do(func(c *Proc) { childRanAt = c.Now() }),
			}.spawn(eng, "child")
		}),
		sleep(10 * Microsecond),
	}.spawn(eng, "parent")
	eng.Run()
	if childRanAt != Time(5*Microsecond) {
		t.Errorf("child finished at %v, want 5us", childRanAt)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	eng := NewEngine()
	var reached []Time
	var ten script
	for i := 0; i < 10; i++ {
		ten = append(ten, sleep(10*Microsecond), do(func(p *Proc) { reached = append(reached, p.Now()) }))
	}
	ten.spawn(eng, "p")
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
	script{take(q, func(int) {})}.spawn(eng, "stuck")
	script{sleep(Microsecond)}.spawn(eng, "fine")
	eng.Spawn("stuck step", func(p *Proc) { q.TryGet(p) })
	slept := false
	eng.Spawn("fine step", func(p *Proc) {
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
			var prev Time
			half := d / 2
			script{
				do(func(p *Proc) { prev = p.Now() }),
				sleep(half),
				do(func(p *Proc) {
					if p.Now() < prev {
						monotonic = false
					}
				}),
				sleep(d - half),
			}.spawn(eng, "p")
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
	script{sleep(10 * Microsecond)}.spawn(eng, "p")
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling an event in the past should panic")
		}
	}()
	NewSignal(eng).FireAfter(-Microsecond)
}
