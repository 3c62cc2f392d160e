//cellmg:deterministic
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

	// Utilization accounting.
	lastChange Time
	busyArea   float64 // integral of inUse over time, unit: capacity·ns
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
	return &Resource{eng: eng, name: name, capacity: capacity, lastChange: eng.now}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Available returns the number of units not currently held.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// Waiting returns the number of processes blocked in Acquire.
func (r *Resource) Waiting() int { return r.waiters.n }

//cellmg:hotpath
func (r *Resource) account() {
	now := r.eng.now
	r.busyArea += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

// Utilization returns the time-averaged fraction of capacity held between the
// start of the simulation and the current virtual time (0 when no time has
// elapsed).
func (r *Resource) Utilization() float64 {
	r.account()
	elapsed := float64(r.eng.now)
	if elapsed == 0 {
		return 0
	}
	return r.busyArea / (elapsed * float64(r.capacity))
}

// Acquire blocks the calling process until n units are available, then holds
// them. Requests are honoured strictly in FIFO order, so a large request is
// not starved by a stream of smaller ones.
//
//cellmg:hotpath
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		//cellmg:allow hotpathalloc -- formats on the way to a panic
		panic(fmt.Sprintf("sim: acquiring %d units from resource %q with capacity %d", n, r.name, r.capacity))
	}
	if r.waiters.n == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		return
	}
	r.waiters.pushBack(resWaiter{p: p, n: n})
	p.block()
	// The releaser has already accounted and reserved our units.
}

// TryAcquire attempts to hold n units without blocking and reports success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	if r.waiters.n > 0 || r.inUse+n > r.capacity {
		return false
	}
	r.account()
	r.inUse += n
	return true
}

// Release returns n units to the resource and admits as many FIFO waiters as
// now fit. It may be called from processes and engine callbacks.
//
//cellmg:hotpath
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	if n > r.inUse {
		//cellmg:allow hotpathalloc -- formats on the way to a panic
		panic(fmt.Sprintf("sim: releasing %d units to resource %q with only %d in use", n, r.name, r.inUse))
	}
	r.account()
	r.inUse -= n
	for r.waiters.n > 0 && r.inUse+r.waiters.at(0).n <= r.capacity {
		w := r.waiters.popFront()
		r.inUse += w.n
		r.eng.wake(w.p, nil)
	}
}

// Use acquires n units, runs the process for d units of virtual time, and
// releases them again. It is the common "occupy a server for a while" idiom.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Delay(d)
	r.Release(n)
}
