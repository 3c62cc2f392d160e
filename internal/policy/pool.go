package policy

// Pool is the scheduling decision for one pool of SPEs (or native workers):
// the allocator, and the source of the parallelization mode that sizes each
// grant — a fixed Decision, or the MGPS controller fed by this pool's own
// arrivals and departures. A scheduler holds one Pool per pool of SPEs and
// brings only its way of waiting and, if it runs on real threads, its lock.
type Pool struct {
	alloc *SPEAllocator
	fixed Decision
	mgps  *MGPS // nil: fixed is in force for good
}

// NewFixedPool creates a pool of n SPEs that grants by d for its whole life:
// Decision{SPEsPerLoop: 1} is EDTLP, StaticLLPDecision(k) is static
// EDTLP-LLP.
func NewFixedPool(n int, d Decision) *Pool {
	return &Pool{alloc: NewSPEAllocator(n), fixed: d}
}

// NewAdaptivePool creates a pool of n SPEs whose grants follow an MGPS
// controller; a cfg with NumSPEs zero selects the paper's parameters for n.
func NewAdaptivePool(n int, cfg MGPSConfig) *Pool {
	if cfg.NumSPEs == 0 {
		cfg = DefaultMGPSConfig(n)
	}
	return &Pool{alloc: NewSPEAllocator(n), mgps: NewMGPS(cfg)}
}

// Decision returns the parallelization mode the next grant will follow.
func (p *Pool) Decision() Decision {
	if p.mgps != nil {
		return p.mgps.Current()
	}
	return p.fixed
}

// Acquire claims the SPEs an off-load of process proc is entitled to under
// the decision in force — one, or a loop group capped at the pool's size,
// master first — and records the arrival. It reports false, claiming
// nothing, while too few SPEs are free: the caller waits for a Release and
// asks again, so a decision that changed in the meantime applies to it.
func (p *Pool) Acquire(proc int) ([]int, bool) {
	want := 1
	if d := p.Decision(); d.UseLLP && d.SPEsPerLoop > 1 {
		want = min(d.SPEsPerLoop, p.alloc.Size())
	}
	group, ok := p.alloc.AcquireGroup(want)
	if ok && p.mgps != nil {
		p.mgps.RecordOffload(proc)
	}
	return group, ok
}

// Release returns a granted group, a master or a loop's borrowed SPEs to the
// pool.
func (p *Pool) Release(group []int) { p.alloc.ReleaseGroup(group) }

// AcquireMaster claims the one SPE a task of process proc runs on for its
// whole life when its off-loads are the loops inside it (the native runtime:
// a task cannot give its goroutine's worker back between kernel calls). Each
// loop then asks Borrow for the rest of what the decision entitles it to. It
// reports false while no SPE is free.
func (p *Pool) AcquireMaster(proc int) ([]int, bool) {
	master, ok := p.alloc.AcquireGroup(1)
	if ok && p.mgps != nil {
		p.mgps.RecordOffload(proc)
	}
	return master, ok
}

// Borrow lends one loop of process proc the idle SPEs the decision in force
// adds to its master — SPEsPerLoop − 1 under LLP, none otherwise — appending
// them to into, never past its capacity, and records the arrival. It takes
// what is free and never waits; it lends nothing while queued tasks are
// waiting for a master, so a returned SPE goes to a task before it goes to a
// neighbour's next loop. The loop hands them back with Release and reports
// its departure with Depart. Nothing is allocated: into is the caller's.
func (p *Pool) Borrow(proc int, into []int, queued int) []int {
	if p.mgps != nil {
		p.mgps.RecordOffload(proc)
	}
	d := p.Decision()
	if !d.UseLLP || queued > 0 {
		return into
	}
	return p.alloc.AcquireUpTo(min(d.SPEsPerLoop-1, cap(into)-len(into)), into)
}

// Depart records that an off-load of process proc completed while waiting
// tasks wanted SPEs (proc's own next one included). When that departure
// closes an MGPS window the evaluation is returned with true; a fixed pool
// never evaluates.
func (p *Pool) Depart(proc, waiting int) (Evaluation, bool) {
	if p.mgps == nil {
		return Evaluation{}, false
	}
	return p.mgps.RecordDeparture(proc, waiting)
}

// Counts returns how many MGPS windows have closed on this pool and how many
// of those evaluations changed the decision.
func (p *Pool) Counts() (evaluations, switches int) {
	if p.mgps == nil {
		return 0, 0
	}
	return p.mgps.Evaluations(), p.mgps.Switches()
}
