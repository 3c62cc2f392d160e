package sim

import "fmt"

// Resource is a counting semaphore with FIFO admission, used to model
// entities with finite capacity such as bus bandwidth slots, DMA queue
// entries or hardware thread contexts.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  ring[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q must have positive capacity", name))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// TryAcquire is Acquire's non-blocking half: it takes n units and reports
// true if they are free and nobody queues ahead, or else parks the calling
// process as a waiter and reports false. Release reserves a waiter's units
// before it wakes it, so a woken waiter holds them and must not ask again.
func (r *Resource) TryAcquire(p *Proc, n int) bool {
	if n <= 0 {
		return true
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquiring %d units from resource %q with capacity %d", n, r.name, r.capacity))
	}
	if r.waiters.n == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	r.waiters.pushBack(resWaiter{p: p, n: n})
	p.park()
	return false
}

// Acquire blocks the calling process until n units are available, then holds
// them. Requests are honoured strictly in FIFO order, so a large request is
// not starved by a stream of smaller ones.
func (r *Resource) Acquire(p *Proc, n int) {
	if !r.TryAcquire(p, n) {
		p.suspend()
	}
}

// Release returns n units to the resource and admits as many FIFO waiters as
// now fit.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	if n > r.inUse {
		panic(fmt.Sprintf("sim: releasing %d units to resource %q with only %d in use", n, r.name, r.inUse))
	}
	r.inUse -= n
	for r.waiters.n > 0 && r.inUse+r.waiters.at(0).n <= r.capacity {
		w := r.waiters.popFront()
		r.inUse += w.n
		r.eng.wake(w.p)
	}
}
