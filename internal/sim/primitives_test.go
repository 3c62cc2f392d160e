package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFODelivery(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	var got []int
	var producer, consumer script
	for i := 0; i < 5; i++ {
		producer = append(producer, do(func(*Proc) { q.Put(i) }), sleep(Microsecond))
		consumer = append(consumer, take(q, func(v int) { got = append(got, v) }))
	}
	producer.spawn(eng, "producer")
	consumer.spawn(eng, "consumer")
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
		script{take(q, func(v string) { winners = append(winners, name+":"+v) })}.spawn(eng, name)
	}
	script{
		sleep(Microsecond),
		do(func(*Proc) {
			q.Put("x")
			q.Put("y")
			q.Put("z")
		}),
	}.spawn(eng, "producer")
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
		script{
			acquire(res, 1),
			do(func(*Proc) {
				inUse++
				if inUse > maxInUse {
					maxInUse = inUse
				}
			}),
			sleep(10 * Microsecond),
			do(func(*Proc) {
				inUse--
				res.Release(1)
			}),
		}.spawn(eng, "user")
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
	script{
		acquire(res, 4),
		sleep(10 * Microsecond),
		do(func(*Proc) { res.Release(4) }),
	}.spawn(eng, "hog")
	script{
		sleep(Microsecond),
		acquire(res, 3),
		do(func(*Proc) { order = append(order, "big") }),
		sleep(5 * Microsecond),
		do(func(*Proc) { res.Release(3) }),
	}.spawn(eng, "big")
	script{
		sleep(2 * Microsecond),
		acquire(res, 1),
		do(func(*Proc) { order = append(order, "small") }),
		sleep(Microsecond),
		do(func(*Proc) { res.Release(1) }),
	}.spawn(eng, "small")
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
		script{sig.Await, do(func(*Proc) { woken++ })}.spawn(eng, "waiter")
	}
	script{
		sleep(5 * Microsecond),
		do(func(*Proc) {
			sig.Fire()
			sig.Fire() // second fire is a no-op
		}),
	}.spawn(eng, "firer")
	// A late waiter must pass straight through.
	script{
		sleep(20 * Microsecond),
		sig.Await,
		do(func(p *Proc) {
			if p.Now() != Time(20*Microsecond) {
				t.Errorf("late waiter held until %v", p.Now())
			}
			woken++
		}),
	}.spawn(eng, "late")
	eng.Run()
	if woken != 4 {
		t.Errorf("woken = %d, want 4", woken)
	}
	if !sig.Fired() {
		t.Errorf("signal not latched after Fire")
	}
}

// TestSignalRearm: a rearmed signal is unfired again, parks a new waiter and
// wakes it when it fires again; rearming a signal a process waits on panics.
func TestSignalRearm(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	sig := NewSignal(eng)
	sig.FireAfter(5 * Microsecond)
	var woke []Time
	script{
		sig.Await,
		do(func(p *Proc) {
			woke = append(woke, p.Now())
			sig.Rearm()
			if sig.Fired() {
				t.Error("a rearmed signal reports fired")
			}
			sig.FireAfter(3 * Microsecond)
		}),
	}.spawn(eng, "owner")
	script{
		sleep(6 * Microsecond), // after the rearm: this Await parks
		sig.Await,
		do(func(p *Proc) { woke = append(woke, p.Now()) }),
	}.spawn(eng, "next")
	eng.Run()
	if len(woke) != 2 || woke[0] != Time(5*Microsecond) || woke[1] != Time(8*Microsecond) {
		t.Errorf("waiters passed at %v, want [5us 8us]", woke)
	}

	waited := NewSignal(eng)
	script{waited.Await}.spawn(eng, "parked")
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("Rearm with a process waiting should panic")
		}
	}()
	waited.Rearm()
}

func TestConditionNotifyAllAndOne(t *testing.T) {
	eng := NewEngine()
	cond := NewCondition(eng)
	var woken []int
	for i := 0; i < 3; i++ {
		script{wait(cond), do(func(*Proc) { woken = append(woken, i) })}.spawn(eng, "w")
	}
	script{
		sleep(Microsecond),
		do(func(*Proc) {
			if cond.Waiting() != 3 {
				t.Errorf("waiting = %d, want 3", cond.Waiting())
			}
			if !cond.NotifyOne() {
				t.Errorf("NotifyOne should have woken a waiter")
			}
		}),
		sleep(Microsecond),
		do(func(*Proc) {
			cond.Notify()
			if cond.NotifyOne() {
				t.Errorf("NotifyOne with no waiters should report false")
			}
		}),
	}.spawn(eng, "notifier")
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
			script{
				acquire(res, 1),
				sleep(service),
				do(func(*Proc) { res.Release(1) }),
			}.spawn(eng, "job")
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
		var producer, consumer script
		for i, g := range gaps {
			producer = append(producer, sleep(Duration(g)*Nanosecond), do(func(*Proc) { q.Put(i) }))
			consumer = append(consumer, take(q, func(v int) { got = append(got, v) }), sleep(3*Nanosecond))
		}
		producer.spawn(eng, "producer")
		consumer.spawn(eng, "consumer")
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
