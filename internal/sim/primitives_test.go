package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFODelivery(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	var got []int
	eng.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(i)
			p.Delay(Microsecond)
		}
	})
	eng.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want [0 1 2 3 4]", got)
		}
	}
}

func TestQueueWaitersServedInOrder(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[string](eng)
	var winners []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		eng.Spawn(name, func(p *Proc) {
			v := q.Get(p)
			winners = append(winners, name+":"+v)
		})
	}
	eng.Spawn("producer", func(p *Proc) {
		p.Delay(Microsecond)
		q.Put("x")
		q.Put("y")
		q.Put("z")
	})
	eng.Run()
	want := []string{"first:x", "second:y", "third:z"}
	for i := range want {
		if winners[i] != want[i] {
			t.Fatalf("winners = %v, want %v", winners, want)
		}
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	eng := NewEngine()
	res := NewResource(eng, "cpu", 2)
	inUse, maxInUse := 0, 0
	for i := 0; i < 6; i++ {
		eng.Spawn("user", func(p *Proc) {
			res.Acquire(p, 1)
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Delay(10 * Microsecond)
			inUse--
			res.Release(1)
		})
	}
	final := eng.Run()
	if maxInUse != 2 {
		t.Errorf("max concurrent holders = %d, want 2", maxInUse)
	}
	if final != Time(30*Microsecond) {
		t.Errorf("6 jobs of 10us on 2 servers finished at %v, want 30us", final)
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	eng := NewEngine()
	res := NewResource(eng, "bus", 4)
	var order []string
	eng.Spawn("hog", func(p *Proc) {
		res.Acquire(p, 4)
		p.Delay(10 * Microsecond)
		res.Release(4)
	})
	eng.Spawn("big", func(p *Proc) {
		p.Delay(Microsecond)
		res.Acquire(p, 3)
		order = append(order, "big")
		p.Delay(5 * Microsecond)
		res.Release(3)
	})
	eng.Spawn("small", func(p *Proc) {
		p.Delay(2 * Microsecond)
		res.Acquire(p, 1)
		order = append(order, "small")
		p.Delay(Microsecond)
		res.Release(1)
	})
	eng.Run()
	if len(order) != 2 || order[0] != "big" {
		t.Errorf("order = %v; FIFO admission should let the earlier large request in first", order)
	}
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewResource with zero capacity should panic")
		}
	}()
	NewResource(NewEngine(), "r", 0)
}

func TestSignalBroadcastAndLatch(t *testing.T) {
	eng := NewEngine()
	sig := NewSignal(eng)
	woken := 0
	for i := 0; i < 3; i++ {
		eng.Spawn("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	eng.Spawn("firer", func(p *Proc) {
		p.Delay(5 * Microsecond)
		sig.Fire()
		sig.Fire() // second fire is a no-op
	})
	// A late waiter must pass straight through.
	eng.Spawn("late", func(p *Proc) {
		p.Delay(20 * Microsecond)
		sig.Wait(p)
		if p.Now() != Time(20*Microsecond) {
			t.Errorf("late waiter held until %v", p.Now())
		}
		woken++
	})
	eng.Run()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
	if !sig.Fired() {
		t.Errorf("signal not latched after Fire")
	}
}

func TestConditionNotifyAllAndOne(t *testing.T) {
	eng := NewEngine()
	cond := NewCondition(eng)
	var woken []int
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("w", func(p *Proc) {
			cond.Wait(p)
			woken = append(woken, i)
		})
	}
	eng.Spawn("notifier", func(p *Proc) {
		p.Delay(Microsecond)
		if cond.Waiting() != 3 {
			t.Errorf("waiting = %d, want 3", cond.Waiting())
		}
		if !cond.NotifyOne() {
			t.Errorf("NotifyOne should have woken a waiter")
		}
		p.Delay(Microsecond)
		cond.Notify()
		if cond.NotifyOne() {
			t.Errorf("NotifyOne with no waiters should report false")
		}
	})
	eng.Run()
	if len(woken) != 3 || woken[0] != 0 {
		t.Errorf("woken = %v; the oldest waiter must be released first", woken)
	}
}

// Property: an M/D/c-style system drains in ceil(n/c)*service time when all
// jobs arrive at time zero — exercises Resource admission under many shapes.
func TestPropertyResourceBatchDrainTime(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%8) + 1
		eng := NewEngine()
		res := NewResource(eng, "srv", c)
		const service = 10 * Microsecond
		for i := 0; i < n; i++ {
			eng.Spawn("job", func(p *Proc) {
				res.Acquire(p, 1)
				p.Delay(service)
				res.Release(1)
			})
		}
		final := eng.Run()
		waves := (n + c - 1) / c
		return final == Time(Duration(waves)*service)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a queue delivers every item exactly once and in insertion order
// regardless of how producers and consumers interleave in time.
func TestPropertyQueueExactlyOnceInOrder(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 40 {
			return true
		}
		eng := NewEngine()
		q := NewQueue[int](eng)
		var got []int
		eng.Spawn("producer", func(p *Proc) {
			for i, g := range gaps {
				p.Delay(Duration(g) * Nanosecond)
				q.Put(i)
			}
		})
		eng.Spawn("consumer", func(p *Proc) {
			for range gaps {
				got = append(got, q.Get(p))
				p.Delay(3 * Nanosecond)
			}
		})
		eng.Run()
		if len(got) != len(gaps) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
