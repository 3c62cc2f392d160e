//cellmg:deterministic
package sim

// ring is a growable circular buffer, the FIFO behind Queue's items and the
// waiter lists of Queue, Resource and Condition. Removing never gives up the
// backing array and adding allocates only while the ring is still growing to
// its peak occupancy, so a steady-state simulation allocates nothing here.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

//cellmg:hotpath
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

//cellmg:hotpath-safe -- allocates only while the ring grows to its peak; steady state guarded by alloc_test.go
func (r *ring[T]) grow() {
	buf := make([]T, max(4, 2*len(r.buf)))
	for i := range r.n {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

//cellmg:hotpath
func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	*r.at(r.n - 1) = v
}

func (r *ring[T]) pushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.n++
	r.buf[r.head] = v
}

//cellmg:hotpath
func (r *ring[T]) popFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// removeAt deletes element i, keeping the order of the others.
func (r *ring[T]) removeAt(i int) T {
	v := *r.at(i)
	for ; i > 0; i-- {
		*r.at(i) = *r.at(i - 1)
	}
	r.popFront()
	return v
}

// Queue is an unbounded FIFO queue of items of type T with blocking Get
// semantics, usable as a mailbox or run queue between simulated processes.
// Put never blocks; Get blocks the calling process until an item is
// available. Waiters are served in FIFO order.
type Queue[T any] struct {
	eng     *Engine
	name    string
	items   ring[T]
	waiters ring[queueWaiter]
}

// queueWaiter is a process blocked in Get or GetTimeout; timeout is the zero
// handle for the former.
type queueWaiter struct {
	p       *Proc
	timeout EventHandle
}

// NewQueue creates an empty queue bound to the engine.
func NewQueue[T any](eng *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: eng, name: name}
}

// Len returns the number of items currently buffered.
func (q *Queue[T]) Len() int { return q.items.n }

// Waiting returns the number of processes blocked in Get.
func (q *Queue[T]) Waiting() int { return q.waiters.n }

// Put appends an item. If a process is blocked in Get, the oldest waiter is
// woken and will receive this item (or an earlier buffered one) when it runs.
// Put may be called from processes and from engine callbacks.
//
//cellmg:hotpath
func (q *Queue[T]) Put(v T) {
	q.items.pushBack(v)
	q.wakeOne()
}

// PutFront pushes an item at the head of the queue, ahead of all buffered
// items. It is used to re-queue work that should retain its position, e.g. a
// preempted task returning to the front of a run queue.
func (q *Queue[T]) PutFront(v T) {
	q.items.pushFront(v)
	q.wakeOne()
}

//cellmg:hotpath
func (q *Queue[T]) wakeOne() {
	if q.waiters.n > 0 {
		w := q.waiters.popFront()
		w.timeout.Cancel()
		q.eng.wake(w.p, nil)
	}
}

// Get removes and returns the oldest item, blocking the calling process until
// one is available.
//
//cellmg:hotpath
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.n == 0 {
		q.waiters.pushBack(queueWaiter{p: p})
		p.block()
	}
	return q.items.popFront()
}

// GetTimeout behaves like Get but gives up after waiting d units of virtual
// time, returning ok=false in that case.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := q.eng.now.Add(d)
	for q.items.n == 0 {
		timeout := q.eng.At(deadline, func() {
			// Still waiting (being served cancels this callback): leave the
			// line and wake up empty-handed.
			for i := range q.waiters.n {
				if q.waiters.at(i).p == p {
					q.waiters.removeAt(i)
					break
				}
			}
			q.eng.wake(p, errTimeout{})
		})
		q.waiters.pushBack(queueWaiter{p: p, timeout: timeout})
		if _, timedOut := p.block().(errTimeout); timedOut {
			return v, false
		}
		// A served waiter can still find the queue empty — the item went to a
		// TryGet, or to a Get that never had to wait — and lines up again
		// unless the deadline has come.
		if q.items.n == 0 && q.eng.now >= deadline {
			return v, false
		}
	}
	return q.items.popFront(), true
}

// TryGet removes and returns the oldest item without blocking. It reports
// whether an item was available.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.n == 0 {
		return v, false
	}
	return q.items.popFront(), true
}

// Drain removes and returns all buffered items.
func (q *Queue[T]) Drain() []T {
	var out []T
	for q.items.n > 0 {
		out = append(out, q.items.popFront())
	}
	return out
}

// Remove deletes the first buffered item for which match returns true,
// reporting whether such an item was found. It is used by schedulers to pull
// a specific task out of a run queue.
func (q *Queue[T]) Remove(match func(T) bool) (v T, ok bool) {
	for i := range q.items.n {
		if match(*q.items.at(i)) {
			return q.items.removeAt(i), true
		}
	}
	return v, false
}

type errTimeout struct{}

func (errTimeout) Error() string { return "sim: wait timed out" }
