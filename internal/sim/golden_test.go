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
// The mix: eight workers draw Delay (zero-length ones too), Yield, Queue.Put
// / PutFront / GetTimeout, Resource.Use, a shared one-shot Signal fired by a
// callback, Condition.Wait, a callback that is sometimes cancelled before it
// fires, and Spawn (children two levels deep); a ticker notifies the
// condition until every worker has exited and then ends the consumer, which
// sits in the untimed Queue.Get; "long" sits in three long Delays so that
// both RunUntil limits fall inside one. A second phase runs a single process
// alone and stops RunUntil inside its Delay, then continues it.
func dispatchMix(seed int64) []string {
	eng := NewEngine()
	var log []string
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", int64(eng.Now()), who, what))
	}
	q := NewQueue[int](eng, "q")
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
				switch rng.Intn(11) {
				case 0, 1:
					p.Delay(Duration(rng.Intn(4) * rng.Intn(1500)))
					rec(name, "delay")
				case 2:
					p.Yield()
					rec(name, "yield")
				case 3:
					q.Put(p.ID()*1000 + i)
					rec(name, "put")
				case 4:
					q.PutFront(-(p.ID()*1000 + i))
					rec(name, "putfront")
				case 5:
					v, ok := q.GetTimeout(p, Duration(rng.Intn(3000)))
					rec(name, fmt.Sprintf("gettimeout %d %v", v, ok))
				case 6:
					res.Use(p, 1+rng.Intn(2), Duration(rng.Intn(2500)))
					rec(name, "use")
				case 7:
					if sig == nil || sig.Fired() {
						s, v := NewSignal(eng), p.ID()*1000+i
						sig = s
						eng.After(Duration(rng.Intn(5000)), func() {
							rec("callback", "fire")
							s.FireValue(v)
						})
					}
					rec(name, fmt.Sprintf("signal %v", sig.Wait(p)))
				case 8:
					cond.Wait(p)
					rec(name, "cond")
				case 9:
					h := eng.After(Duration(rng.Intn(3000)), func() { rec("callback", name) })
					if rng.Intn(2) == 0 {
						p.Sleep(Duration(rng.Intn(2000)))
						rec(name, fmt.Sprintf("cancel %v %v", h.Cancel(), h.Pending()))
					}
				case 10:
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
			p.Sleep(1500)
			if i%3 == 2 {
				rec("ticker", fmt.Sprintf("notifyone %v", cond.NotifyOne()))
			} else {
				cond.Notify()
				rec("ticker", "notify")
			}
		}
		q.Put(stop)
	})
	eng.Spawn("consumer", func(p *Proc) {
		for {
			v := q.Get(p)
			if v == stop {
				rec("consumer", "exit")
				return
			}
			rec("consumer", fmt.Sprintf("get %d", v))
			p.Delay(700)
		}
	})
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
// which was written by this very function at 23bf8dd — the last commit where
// every process was a goroutine resumed over a channel and every wake-up went
// through the container/heap event queue. The coroutine hand-off, the inline
// clock advance, the event heap and the ring buffers behind Queue, Resource
// and Condition all have to reproduce it line for line.
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
	eng.At(5, func() { order = append(order, "callback@5") })
	eng.Spawn("first", func(p *Proc) {
		p.Delay(5)
		order = append(order, "first@5")
		p.Delay(3) // ends at 8, where second's wake-up is already queued
		order = append(order, "first@8")
	})
	eng.Spawn("second", func(p *Proc) {
		p.Delay(8)
		order = append(order, "second@8")
		eng.After(2, func() { order = append(order, "callback@10") })
		p.Sleep(2) // scheduled after the callback for the same instant
		order = append(order, "second@10")
	})
	eng.Run()
	want := "callback@5 first@5 second@8 first@8 callback@10 second@10"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}
