package sched

import (
	"testing"

	"cellmg/internal/workload"
)

// BenchmarkSweep is one operation of bench/'s sim_sweep: EDTLP, EDTLP-LLP(4)
// and MGPS at 1, 2, 4, 8 and 16 bootstraps of RAxML42SC, 15 simulations. It
// times the simulator layer (sim, cellsim, offload, sched, policy) without
// the bench/ harness. An off-load allocates nothing — its SPEs run the
// program in place, its issuer rearms the same signals, its grant fills the
// issuer's buffer — so B/op and allocs/op are the simulations' set-up: the
// workload's step slices and generators, the machine, the processes, each
// buffer's growth to its peak. CI fails above 4,000 allocs/op;
// TestAllocationsDoNotGrowWithOffloads holds the same property per
// scheduler.
func BenchmarkSweep(b *testing.B) {
	cfg := workload.RAxML42SC()
	b.ReportAllocs()
	for b.Loop() {
		for _, n := range []int{1, 2, 4, 8, 16} {
			opt := Options{Workload: cfg, Bootstraps: n, SPEsPerLoop: 4}
			RunEDTLP(opt)
			RunStaticHybrid(opt)
			RunMGPS(opt)
		}
	}
}
