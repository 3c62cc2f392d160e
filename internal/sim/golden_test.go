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
// engine's dispatch sequence as processes see it — including the wake-ups
// that never pass through the event queue.
//
// The mix: eight workers draw Sleep (zero-length ones too, which requeue the
// process behind everything pending at that instant), Queue.Put and TryGet,
// Resource.TryAcquire/Release of one or two of two units, a shared one-shot
// Signal that gathers several waiters before its FireAfter event fires it,
// Condition.Await, and Spawn (children two levels deep); a ticker alternates
// Notify and NotifyOne on the condition and feeds the queue until every
// worker has exited, then ends the two consumers, which sit in TryGet;
// "long" sits in three long Sleeps so that both RunUntil limits fall inside
// one. A second phase runs a single process alone and stops RunUntil inside
// its Sleep, then continues it.
func dispatchMix(seed int64) []string {
	eng := NewEngine()
	var log []string
	m := &mix{eng: eng, q: NewQueue[int](eng), res: NewResource(eng, "res", 2), cond: NewCondition(eng)}
	m.rec = func(who, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", int64(eng.Now()), who, what))
	}
	rec := m.rec
	const stop = math.MinInt

	for w := 0; w < 8; w++ {
		m.spawn(fmt.Sprintf("w%d", w), rand.New(rand.NewSource(seed+int64(w))), 40, 0)
	}
	tick, ticking := 0, false
	eng.Spawn("ticker", func(p *Proc) {
		for {
			if !ticking {
				if m.active == 0 {
					m.q.Put(stop)
					m.q.Put(stop)
					return
				}
				ticking = true
				if !p.Sleep(1500) {
					return
				}
			}
			ticking = false
			if tick%3 == 2 {
				rec("ticker", fmt.Sprintf("notifyone %v", m.cond.NotifyOne()))
			} else {
				m.cond.Notify()
				rec("ticker", "notify")
			}
			m.q.Put(-tick) // workers waiting in TryGet outnumber the workers' own puts
			tick++
		}
	})
	for _, name := range []string{"consumerA", "consumerB"} {
		resting := false
		eng.Spawn(name, func(p *Proc) {
			for {
				if !resting {
					v, ok := m.q.TryGet(p)
					if !ok {
						return
					}
					if v == stop {
						rec(name, "exit")
						return
					}
					rec(name, fmt.Sprintf("get %d", v))
					resting = true
					if !p.Sleep(700) {
						return
					}
				}
				resting = false
			}
		})
	}
	sleeper := func(name string, d Duration) script {
		var s script
		for i := 0; i < 3; i++ {
			s = append(s, sleep(d), do(func(*Proc) { rec(name, "delay") }))
		}
		return s
	}
	sleeper("long", 17000).spawn(eng, "long")

	for _, limit := range []Time{20000, 20000, 45500} {
		eng.RunUntil(limit)
		rec("main", fmt.Sprintf("limit live=%d", eng.Live()))
	}
	eng.Run()
	rec("main", fmt.Sprintf("drained live=%d blocked=%v", eng.Live(), eng.Blocked()))

	sleeper("solo", 10000).spawn(eng, "solo")
	eng.RunUntil(eng.Now() + 15000)
	rec("main", "limit")
	eng.Run()
	rec("main", fmt.Sprintf("drained live=%d", eng.Live()))
	return log
}

// mix is what dispatchMix's workers share.
type mix struct {
	eng    *Engine
	rec    func(who, what string)
	q      *Queue[int]
	res    *Resource
	cond   *Condition
	sig    *Signal // the shared one-shot signal, replaced once it has fired
	active int     // workers that have not exited
}

// mixWorker is one worker of dispatchMix: steps actions drawn from rng, the
// action in hand and its phase (0: draw the next) carried across parks.
type mixWorker struct {
	*mix
	name         string
	rng          *rand.Rand
	steps, depth int
	i            int // the action in hand
	action       int
	phase        int
	n            int     // units held
	sig          *Signal // the signal waited on
}

func (m *mix) spawn(name string, rng *rand.Rand, steps, depth int) {
	m.active++
	w := &mixWorker{mix: m, name: name, rng: rng, steps: steps, depth: depth}
	m.eng.Spawn(name, w.step)
}

func (w *mixWorker) step(p *Proc) {
	for {
		if w.phase == 0 {
			if w.i == w.steps {
				w.active--
				w.rec(w.name, "exit")
				return
			}
			w.action, w.phase = w.rng.Intn(10), 1
		}
		switch w.action {
		case 0, 1:
			if w.phase == 1 {
				w.phase = 2
				if !p.Sleep(Duration(w.rng.Intn(4) * w.rng.Intn(1500))) {
					return
				}
			}
			w.rec(w.name, "delay")
		case 2:
			if w.phase == 1 {
				w.phase = 2
				if !p.Sleep(0) {
					return
				}
			}
			w.rec(w.name, "delay0")
		case 3, 4:
			w.q.Put(p.ID()*1000 + w.i)
			w.rec(w.name, "put")
		case 5:
			v, ok := w.q.TryGet(p)
			if !ok {
				return
			}
			w.rec(w.name, fmt.Sprintf("get %d", v))
		case 6:
			switch w.phase {
			case 1:
				w.n, w.phase = 1+w.rng.Intn(2), 2
				if !w.res.TryAcquire(p, w.n) {
					return
				}
				fallthrough
			case 2:
				w.rec(w.name, fmt.Sprintf("acquired %d", w.n))
				w.phase = 3
				if !p.Sleep(Duration(w.rng.Intn(2500))) {
					return
				}
			}
			w.res.Release(w.n)
			w.rec(w.name, "released")
		case 7:
			if w.phase == 1 {
				if w.mix.sig == nil || w.mix.sig.Fired() {
					w.mix.sig = NewSignal(w.eng)
					w.mix.sig.FireAfter(Duration(w.rng.Intn(5000)))
					w.rec(w.name, "fireafter")
				}
				w.sig, w.phase = w.mix.sig, 2
			}
			if !w.sig.Await(p) {
				return
			}
			w.rec(w.name, "signal")
		case 8:
			if w.phase == 1 {
				w.phase = 2
				w.cond.Await(p)
				return
			}
			w.rec(w.name, "cond")
		case 9:
			if w.depth < 2 {
				child := fmt.Sprintf("%s.%d", w.name, w.i)
				w.spawn(child, rand.New(rand.NewSource(w.rng.Int63())), 8, w.depth+1)
				w.rec(w.name, "spawn")
			}
		}
		w.i++
		w.phase = 0
	}
}

// TestDispatchSequenceGolden holds the engine to testdata/dispatch_golden.txt,
// which this very mix wrote on an engine that still had three event kinds
// (process, signal, cancellable callback), wake-ups that carried a value,
// Queue waiters with a timeout handle each, and processes that were
// coroutines running straight-line bodies: dispatchMix uses only what both
// engines offer, so the file is that engine's dispatch order. The two-kind
// event loop, the inline clock advance, the event heap, the ring buffers
// behind Queue, Resource and Condition, and processes written as step
// functions all have to reproduce it line for line. A diff is a changed
// simulation — do not regenerate the file.
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
// advance must leave alone: a Sleep that ends at the very time of an event
// already in the queue parks, and the process carries on after that event.
func TestDelayQueuesBehindEqualTimeEvent(t *testing.T) {
	eng := NewEngine()
	var order []string
	at5 := NewSignal(eng)
	at5.FireAfter(5) // queued for t=5 before any process exists
	script{
		sleep(5),
		do(func(*Proc) { order = append(order, fmt.Sprintf("first@5 fired=%v", at5.Fired())) }),
		sleep(3), // ends at 8, where second's wake-up is already queued
		do(func(*Proc) { order = append(order, "first@8") }),
	}.spawn(eng, "first")
	at10 := NewSignal(eng)
	script{
		sleep(8),
		do(func(*Proc) {
			order = append(order, "second@8")
			at10.FireAfter(2)
		}),
		sleep(2), // scheduled after the firing for the same instant
		do(func(*Proc) { order = append(order, fmt.Sprintf("second@10 fired=%v", at10.Fired())) }),
	}.spawn(eng, "second")
	eng.Run()
	want := "first@5 fired=true second@8 first@8 second@10 fired=true"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}
