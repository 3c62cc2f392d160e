package sim

import "testing"

// BenchmarkEventDispatch measures the raw cost of one timed event
// (schedule + context hand-off), the unit everything in cellsim and sched is
// built from.
func BenchmarkEventDispatch(b *testing.B) {
	eng := NewEngine()
	eng.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueHandoff measures a producer/consumer hand-off through a
// simulated queue (two process wake-ups per item).
func BenchmarkQueueHandoff(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Delay(Nanosecond)
		}
	})
	eng.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkStepQueueHandoff is BenchmarkQueueHandoff between two step
// processes, the kind a simulated SPE is: every wake-up is a call, not a
// coroutine switch.
func BenchmarkStepQueueHandoff(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	sent := 0
	eng.SpawnStep("producer", func(p *Proc) {
		for sent < b.N {
			q.Put(sent)
			sent++
			if !p.Sleep(Nanosecond) {
				return
			}
		}
	})
	got := 0
	eng.SpawnStep("consumer", func(p *Proc) {
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
		eng.Spawn("user", func(p *Proc) {
			for j := 0; j < per; j++ {
				res.Acquire(p, 1)
				p.Delay(Nanosecond)
				res.Release(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
