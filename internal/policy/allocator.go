package policy

import "fmt"

// SPEAllocator tracks which SPEs are free and hands them out in groups: of
// one for EDTLP, of several for loop work-sharing (LLP). It is deliberately
// simple bookkeeping behind Pool; all blocking/waiting is the caller's
// concern.
type SPEAllocator struct {
	free []bool
	n    int
}

// NewSPEAllocator creates an allocator for n SPEs, all initially free.
func NewSPEAllocator(n int) *SPEAllocator {
	if n <= 0 {
		panic("policy: allocator needs at least one SPE")
	}
	a := &SPEAllocator{free: make([]bool, n), n: n}
	for i := range a.free {
		a.free[i] = true
	}
	return a
}

// Size returns the number of SPEs managed.
func (a *SPEAllocator) Size() int { return a.n }

// FreeCount returns how many SPEs are currently free.
func (a *SPEAllocator) FreeCount() int {
	c := 0
	for _, f := range a.free {
		if f {
			c++
		}
	}
	return c
}

// AcquireGroup claims k free SPEs (the lowest-indexed ones available),
// appending their indices to into and returning it, the first appended
// element intended as the loop master. It fails without claiming anything if
// fewer than k SPEs are free.
func (a *SPEAllocator) AcquireGroup(k int, into []int) ([]int, bool) {
	if k <= 0 || a.FreeCount() < k {
		return nil, false
	}
	return a.AcquireUpTo(k, into), true
}

// AcquireUpTo claims at most k free SPEs, lowest-indexed first, appends them
// to into and returns it; fewer than k (or none) is not a failure.
func (a *SPEAllocator) AcquireUpTo(k int, into []int) []int {
	for i := 0; i < a.n && k > 0; i++ {
		if a.free[i] {
			a.free[i] = false
			into = append(into, i)
			k--
		}
	}
	return into
}

// Release returns a single SPE to the free pool.
func (a *SPEAllocator) Release(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("policy: releasing SPE %d outside [0,%d)", i, a.n))
	}
	if a.free[i] {
		panic(fmt.Sprintf("policy: double release of SPE %d", i))
	}
	a.free[i] = true
}

// ReleaseGroup returns a group of SPEs to the free pool.
func (a *SPEAllocator) ReleaseGroup(ids []int) {
	for _, i := range ids {
		a.Release(i)
	}
}
