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

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) grow() {
	buf := make([]T, max(4, 2*len(r.buf)))
	for i := range r.n {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	*r.at(r.n - 1) = v
}

func (r *ring[T]) popFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Queue is an unbounded FIFO queue of items of type T with blocking Get
// semantics, usable as a mailbox or run queue between simulated processes.
// Put never blocks; Get blocks the calling process until an item is
// available. Waiters are served in FIFO order.
type Queue[T any] struct {
	eng     *Engine
	items   ring[T]
	waiters ring[*Proc]
}

// NewQueue creates an empty queue bound to the engine.
func NewQueue[T any](eng *Engine) *Queue[T] {
	return &Queue[T]{eng: eng}
}

// Len returns the number of items currently buffered.
func (q *Queue[T]) Len() int { return q.items.n }

// Put appends an item. If a process waits in Get or TryGet, the oldest waiter
// is woken and will receive this item (or an earlier buffered one) when it
// runs.
func (q *Queue[T]) Put(v T) {
	q.items.pushBack(v)
	if q.waiters.n > 0 {
		q.eng.wake(q.waiters.popFront())
	}
}

// TryGet is Get's non-blocking half: it removes and returns the oldest item
// with true, or, with the queue empty, parks the calling process as a waiter
// and reports false. A woken waiter calls TryGet again: the item that woke it
// may have been taken by a process that ran first.
func (q *Queue[T]) TryGet(p *Proc) (T, bool) {
	if q.items.n > 0 {
		return q.items.popFront(), true
	}
	q.waiters.pushBack(p)
	p.park()
	var zero T
	return zero, false
}

// Get removes and returns the oldest item, blocking the calling process until
// one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(p); ok {
			return v
		}
		p.suspend()
	}
}
