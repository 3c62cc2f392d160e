package experiments

import (
	"sync"
	"testing"
)

// eightCore is a third topology for the checks below: one bootstrap per core,
// eight cores, no SMT — the Cell's shape seen as a conventional machine.
var eightCore = host{name: "Cell (reference)", cores: 8, threadsPerCore: 1, single: 28, smt: 1}

func TestHostSeconds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		h      host
		n      int
		lo, hi float64
	}{
		// No bootstrap shares a core, so there is no SMT slow-down.
		{"one Xeon bootstrap takes the single-thread time", dualXeon, 1, 28, 28},
		{"one Power5 bootstrap takes the single-thread time", power5, 1, 18, 18},
		{"two Xeon bootstraps spread across the cores", dualXeon, 2, 28, 28},
		{"two Power5 bootstraps spread across the cores", power5, 2, 18, 18},
		{"a third Xeon bootstrap shares a core", dualXeon, 3, 28 * 1.6, 28 * 1.6},
		{"a full Power5 wave pays the SMT contention", power5, 4, 18 * 1.3, 18 * 1.3},
		// A full wave, then two bootstraps on separate cores.
		{"a partial final wave pays no SMT contention", power5, 6, 18*1.3 + 18, 18*1.3 + 18},
		{"eight cores run eight bootstraps in one wave", eightCore, 8, 28, 28},
		// Figure 10 places the Xeon near 180 s at 16 bootstraps and near
		// 1400 s at 128; the Cell finishes 128 in roughly 690-700
		// paper-seconds, and the Power5 lands 5-10% above that.
		{"the Xeon lands near Figure 10(a) at 16 bootstraps", dualXeon, 16, 150, 210},
		{"the Xeon lands near Figure 10(b) at 128 bootstraps", dualXeon, 128, 1200, 1650},
		{"the Power5 lands just above the Cell at 128 bootstraps", power5, 128, 700, 820},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.seconds(tc.n); got < tc.lo-1e-9 || got > tc.hi+1e-9 {
				t.Errorf("%s: %d bootstraps = %.2f s, want %.2f-%.2f", tc.h.name, tc.n, got, tc.lo, tc.hi)
			}
		})
	}
	// 16 and 128 bootstraps are both whole waves of four contexts.
	for _, h := range []host{dualXeon, power5} {
		if r := h.seconds(128) / h.seconds(16); r < 8-1e-9 || r > 8+1e-9 {
			t.Errorf("%s: 128/16 bootstrap ratio = %.4f, want 8", h.name, r)
		}
	}
}

// Wall-clock time never falls as bootstraps are added and never beats
// perfect speedup over the single-thread time.
func TestHostSecondsMonotoneAndBounded(t *testing.T) {
	for _, h := range []host{dualXeon, power5, eightCore} {
		contexts := float64(h.cores * h.threadsPerCore)
		prev := 0.0
		for n := 1; n <= 151; n++ {
			got := h.seconds(n)
			if got < prev {
				t.Fatalf("%s: %d bootstraps = %v, faster than %d = %v", h.name, n, got, n-1, prev)
			}
			if ideal := float64(n) * h.single / contexts; got < ideal-1e-9 {
				t.Fatalf("%s: %d bootstraps = %v, below perfect speedup %v", h.name, n, got, ideal)
			}
			prev = got
		}
	}
}

// A host is a value that seconds never writes, so calls from several
// goroutines must each give the serial answer. Meant to run under -race.
func TestHostSecondsConcurrent(t *testing.T) {
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	for _, h := range []host{dualXeon, power5, eightCore} {
		t.Run(h.name, func(t *testing.T) {
			want := make([]float64, len(counts))
			for i, n := range counts {
				want[i] = h.seconds(n)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 50; rep++ {
						for i, n := range counts {
							if got := h.seconds(n); got != want[i] {
								t.Errorf("concurrent seconds(%d) = %v, want %v", n, got, want[i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// Goroutines sharing one host each walk the doubling counts: time never falls,
// and it rises strictly once the count exceeds the hardware contexts (each
// doubling then adds whole waves). Meant to run under -race.
func TestHostSecondsConcurrentMonotone(t *testing.T) {
	h := power5
	contexts := h.cores * h.threadsPerCore
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0.0
			for n := 1; n <= 64; n *= 2 {
				cur := h.seconds(n)
				if cur < prev || (n > contexts && cur <= prev) {
					t.Errorf("seconds(%d) = %v vs seconds(%d) = %v breaks monotonicity", n, cur, n/2, prev)
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
}
