package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mixAction is one draw of a mix worker: what it does next and with what.
type mixAction struct {
	kind, n int
	d       Duration
}

// mixWorker is one worker of stepMix, written twice over the same draws: as
// a coroutine body calling the blocking primitives, and as a step function
// calling their try-or-park halves, carrying the action in hand and its phase
// across returns.
type mixWorker struct {
	name  string
	rng   *rand.Rand
	left  int
	a     mixAction
	phase int
	sig   *Signal
	rec   func(who, what string)
	mix   *stepMixState
}

type stepMixState struct {
	eng    *Engine
	q      *Queue[int]
	res    *Resource
	sig    *Signal
	active int
}

func (w *mixWorker) draw() mixAction {
	w.left--
	return mixAction{kind: w.rng.Intn(5), n: 1 + w.rng.Intn(2), d: Duration(w.rng.Intn(4) * w.rng.Intn(1500))}
}

// signal returns the shared one-shot signal to wait on, arming a new one
// when the last has fired.
func (w *mixWorker) signal() *Signal {
	m := w.mix
	if m.sig == nil || m.sig.Fired() {
		m.sig = NewSignal(m.eng)
		m.sig.FireAfter(w.a.d + 1)
		w.rec(w.name, "fireafter")
	}
	return m.sig
}

func (w *mixWorker) body(p *Proc) {
	m := w.mix
	for w.left > 0 {
		w.a = w.draw()
		switch w.a.kind {
		case 0:
			p.Delay(w.a.d)
			w.rec(w.name, "delay")
		case 1:
			m.q.Put(p.ID()*1000 + w.left)
			w.rec(w.name, "put")
		case 2:
			w.rec(w.name, fmt.Sprintf("get %d", m.q.Get(p)))
		case 3:
			m.res.Acquire(p, w.a.n)
			w.rec(w.name, fmt.Sprintf("acquired %d", w.a.n))
			p.Delay(w.a.d)
			m.res.Release(w.a.n)
			w.rec(w.name, "released")
		case 4:
			w.signal().Wait(p)
			w.rec(w.name, "signal")
		}
	}
	m.active--
	w.rec(w.name, "exit")
}

func (w *mixWorker) step(p *Proc) {
	m := w.mix
	for {
		if w.phase == 0 {
			if w.left == 0 {
				m.active--
				w.rec(w.name, "exit")
				return
			}
			w.a, w.phase = w.draw(), 1
		}
		switch a := w.a; a.kind {
		case 0:
			if w.phase == 1 {
				w.phase = 2
				if !p.Sleep(a.d) {
					return
				}
			}
			w.rec(w.name, "delay")
		case 1:
			m.q.Put(p.ID()*1000 + w.left)
			w.rec(w.name, "put")
		case 2:
			v, ok := m.q.TryGet(p)
			if !ok {
				return
			}
			w.rec(w.name, fmt.Sprintf("get %d", v))
		case 3:
			switch w.phase {
			case 1:
				w.phase = 2
				if !m.res.TryAcquire(p, a.n) {
					return
				}
				fallthrough
			case 2:
				w.rec(w.name, fmt.Sprintf("acquired %d", a.n))
				w.phase = 3
				if !p.Sleep(a.d) {
					return
				}
			}
			m.res.Release(a.n)
			w.rec(w.name, "released")
		case 4:
			if w.phase == 1 {
				w.sig, w.phase = w.signal(), 2
			}
			if !w.sig.Await(p) {
				return
			}
			w.rec(w.name, "signal")
		}
		w.phase = 0
	}
}

// stepMix runs eight seeded workers over Delay, Queue, Resource and Signal,
// a ticker feeding the queue until they have all exited, and a RunUntil limit
// inside the run; stepKind(w) says whether worker w is a step process. It
// returns the dispatch log in dispatchMix's format.
func stepMix(seed int64, stepKind func(w int) bool) []string {
	eng := NewEngine()
	defer eng.Close()
	var log []string
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", int64(eng.Now()), who, what))
	}
	m := &stepMixState{eng: eng, q: NewQueue[int](eng), res: NewResource(eng, "res", 2)}
	for i := 0; i < 8; i++ {
		w := &mixWorker{name: fmt.Sprintf("w%d", i), rng: rand.New(rand.NewSource(seed + int64(i))), left: 40, rec: rec, mix: m}
		m.active++
		if stepKind(i) {
			eng.SpawnStep(w.name, w.step)
		} else {
			eng.Spawn(w.name, w.body)
		}
	}
	eng.Spawn("ticker", func(p *Proc) {
		for i := 0; m.active > 0; i++ {
			p.Delay(1100)
			m.q.Put(-i)
			rec("ticker", "put")
		}
	})
	eng.RunUntil(9000)
	rec("main", fmt.Sprintf("limit live=%d", eng.Live()))
	eng.Run()
	rec("main", fmt.Sprintf("drained live=%d blocked=%v", eng.Live(), eng.Blocked()))
	return log
}

// TestStepProcessesDispatchLikeCoroutines: a state machine over the
// try-or-park halves is the same process as a coroutine over the blocking
// primitives — for several seeds, all-coroutine, all-step and mixed workers
// produce one dispatch log, line for line.
func TestStepProcessesDispatchLikeCoroutines(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		want := stepMix(seed, func(int) bool { return false })
		if len(want) < 300 {
			t.Fatalf("seed %d: a %d-line log exercises too little", seed, len(want))
		}
		for name, kind := range map[string]func(int) bool{
			"all step": func(int) bool { return true },
			"odd step": func(w int) bool { return w%2 == 1 },
		} {
			if got := stepMix(seed, kind); !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("seed %d, %s: logs of %d and %d lines part at line %d", seed, name, len(got), len(want), i)
			}
		}
	}
}
