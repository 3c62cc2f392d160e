package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// dispatchMix runs a seeded random mix of every primitive and returns one
// line per observable step: "<virtual ns> <who> <what>". A process writes its
// line the moment a primitive hands control back to it, so the log is the
// engine's dispatch sequence as process bodies see it — including the
// wake-ups that never pass through the event queue.
//
// The mix: eight workers draw Delay (zero-length ones too, which requeue the
// process behind everything pending at that instant), Queue.Put and Get,
// Resource.Acquire/Release of one or two of two units, a shared one-shot
// Signal that gathers several waiters before its FireAfter event fires it,
// Condition.Wait, and Spawn (children two levels deep); a ticker alternates
// Notify and NotifyOne on the condition and feeds the queue until every
// worker has exited, then ends the two consumers, which sit in Queue.Get;
// "long" sits in three long Delays so that both RunUntil limits fall inside
// one. A second phase runs a single process alone and stops RunUntil inside
// its Delay, then continues it.
func dispatchMix(seed int64) []string {
	eng := NewEngine()
	var log []string
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", int64(eng.Now()), who, what))
	}
	q := NewQueue[int](eng)
	res := NewResource(eng, "res", 2)
	cond := NewCondition(eng)
	var sig *Signal
	active := 0
	const stop = math.MinInt

	var body func(name string, rng *rand.Rand, steps, depth int) func(*Proc)
	body = func(name string, rng *rand.Rand, steps, depth int) func(*Proc) {
		active++
		return func(p *Proc) {
			for i := 0; i < steps; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					p.Delay(Duration(rng.Intn(4) * rng.Intn(1500)))
					rec(name, "delay")
				case 2:
					p.Delay(0)
					rec(name, "delay0")
				case 3, 4:
					q.Put(p.ID()*1000 + i)
					rec(name, "put")
				case 5:
					rec(name, fmt.Sprintf("get %d", q.Get(p)))
				case 6:
					n := 1 + rng.Intn(2)
					res.Acquire(p, n)
					rec(name, fmt.Sprintf("acquired %d", n))
					p.Delay(Duration(rng.Intn(2500)))
					res.Release(n)
					rec(name, "released")
				case 7:
					if sig == nil || sig.Fired() {
						sig = NewSignal(eng)
						sig.FireAfter(Duration(rng.Intn(5000)))
						rec(name, "fireafter")
					}
					sig.Wait(p)
					rec(name, "signal")
				case 8:
					cond.Wait(p)
					rec(name, "cond")
				case 9:
					if depth < 2 {
						child := fmt.Sprintf("%s.%d", name, i)
						eng.Spawn(child, body(child, rand.New(rand.NewSource(rng.Int63())), 8, depth+1))
						rec(name, "spawn")
					}
				}
			}
			active--
			rec(name, "exit")
		}
	}
	for w := 0; w < 8; w++ {
		name := fmt.Sprintf("w%d", w)
		eng.Spawn(name, body(name, rand.New(rand.NewSource(seed+int64(w))), 40, 0))
	}
	eng.Spawn("ticker", func(p *Proc) {
		for i := 0; active > 0; i++ {
			p.Delay(1500)
			if i%3 == 2 {
				rec("ticker", fmt.Sprintf("notifyone %v", cond.NotifyOne()))
			} else {
				cond.Notify()
				rec("ticker", "notify")
			}
			q.Put(-i) // workers blocked in Get outnumber the workers' own puts
		}
		q.Put(stop)
		q.Put(stop)
	})
	for _, name := range []string{"consumerA", "consumerB"} {
		eng.Spawn(name, func(p *Proc) {
			for {
				v := q.Get(p)
				if v == stop {
					rec(name, "exit")
					return
				}
				rec(name, fmt.Sprintf("get %d", v))
				p.Delay(700)
			}
		})
	}
	eng.Spawn("long", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(17000)
			rec("long", "delay")
		}
	})

	for _, limit := range []Time{20000, 20000, 45500} {
		eng.RunUntil(limit)
		rec("main", fmt.Sprintf("limit live=%d", eng.Live()))
	}
	eng.Run()
	rec("main", fmt.Sprintf("drained live=%d blocked=%v", eng.Live(), eng.Blocked()))

	eng.Spawn("solo", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(10000)
			rec("solo", "delay")
		}
	})
	eng.RunUntil(eng.Now() + 15000)
	rec("main", "limit")
	eng.Run()
	rec("main", fmt.Sprintf("drained live=%d", eng.Live()))
	return log
}

// TestDispatchSequenceGolden holds the engine to testdata/dispatch_golden.txt,
// which this very function wrote on an engine that still had three event
// kinds (process, signal, cancellable callback), wake-ups that carried a
// value, and Queue waiters with a timeout handle each: dispatchMix uses only
// what both engines offer, so the file is that engine's dispatch order. The
// two-kind event loop, the inline clock advance, the event heap and the ring
// buffers behind Queue, Resource and Condition all have to reproduce it line
// for line. A diff is a changed simulation — do not regenerate the file.
func TestDispatchSequenceGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/dispatch_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := dispatchMix(20071)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %q, golden has %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d steps, golden has %d", len(got), len(want))
	}
}

// TestDelayQueuesBehindEqualTimeEvent pins the engine's documented order at
// one instant — FIFO by scheduling order — for the case the inline clock
// advance must leave alone: a Delay that ends at the very time of an event
// already in the queue returns after that event has been dispatched.
func TestDelayQueuesBehindEqualTimeEvent(t *testing.T) {
	eng := NewEngine()
	var order []string
	at5 := NewSignal(eng)
	at5.FireAfter(5) // queued for t=5 before any process exists
	eng.Spawn("first", func(p *Proc) {
		p.Delay(5)
		order = append(order, fmt.Sprintf("first@5 fired=%v", at5.Fired()))
		p.Delay(3) // ends at 8, where second's wake-up is already queued
		order = append(order, "first@8")
	})
	eng.Spawn("second", func(p *Proc) {
		p.Delay(8)
		order = append(order, "second@8")
		at10 := NewSignal(eng)
		at10.FireAfter(2)
		p.Delay(2) // scheduled after the firing for the same instant
		order = append(order, fmt.Sprintf("second@10 fired=%v", at10.Fired()))
	})
	eng.Run()
	want := "first@5 fired=true second@8 first@8 second@10 fired=true"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}
