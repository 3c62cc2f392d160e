package sim

import "testing"

// BenchmarkEventDispatch measures the raw cost of one timed event (schedule
// and wake-up), the unit everything in cellsim and sched is built from. A
// lone process' Sleep is the next event, so this is the inline advance.
func BenchmarkEventDispatch(b *testing.B) {
	eng := NewEngine()
	ticks := 0
	eng.Spawn("ticker", func(p *Proc) {
		for ticks < b.N {
			ticks++
			if !p.Sleep(Microsecond) {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueHandoff measures a producer/consumer hand-off through a
// simulated queue (two process wake-ups per item, each a call of a step
// function).
func BenchmarkQueueHandoff(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	sent := 0
	eng.Spawn("producer", func(p *Proc) {
		for sent < b.N {
			q.Put(sent)
			sent++
			if !p.Sleep(Nanosecond) {
				return
			}
		}
	})
	got := 0
	eng.Spawn("consumer", func(p *Proc) {
		for got < b.N {
			if _, ok := q.TryGet(p); !ok {
				return
			}
			got++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkResourceContention measures acquire/release cycles on a contended
// resource with four processes sharing two slots.
func BenchmarkResourceContention(b *testing.B) {
	eng := NewEngine()
	res := NewResource(eng, "bench", 2)
	per := b.N/4 + 1
	for i := 0; i < 4; i++ {
		left, phase := per, 0
		eng.Spawn("user", func(p *Proc) {
			for left > 0 {
				switch phase {
				case 0:
					phase = 1
					if !res.TryAcquire(p, 1) {
						return // woken holding the unit
					}
					fallthrough
				case 1:
					phase = 2
					if !p.Sleep(Nanosecond) {
						return
					}
				}
				res.Release(1)
				phase = 0
				left--
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
