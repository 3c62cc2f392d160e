package hostsim

// Concurrency coverage for the comparison-host models, meant to run under
// -race. The experiment harness sweeps RunBootstraps over many counts from
// parallel goroutines sharing one Machine value, so every query method must
// be safe for concurrent readers and must not mutate the machine.

import (
	"sync"
	"testing"
)

func TestConcurrentSweepsOnSharedMachine(t *testing.T) {
	machines := []*Machine{DualXeonHT(), Power5(), eightCore(28)}
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			sweep := func() []float64 {
				out := make([]float64, len(counts))
				for i, n := range counts {
					out[i] = m.RunBootstraps(n)
				}
				return out
			}
			// Reference answers computed serially first.
			want := sweep()

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 50; rep++ {
						got := sweep()
						for i := range counts {
							if got[i] != want[i] {
								t.Errorf("concurrent RunBootstraps(%d) = %v, want %v", counts[i], got[i], want[i])
								return
							}
						}
						m.Contexts()
						m.Cores()
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestConcurrentRunBootstrapsMonotone(t *testing.T) {
	m := Power5()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0.0
			for n := 1; n <= 64; n *= 2 {
				cur := m.RunBootstraps(n)
				// Never faster with more work; strictly slower once the
				// job count exceeds the hardware contexts (extra waves).
				if cur < prev || (n > m.Contexts() && cur <= prev) {
					t.Errorf("RunBootstraps(%d) = %v vs RunBootstraps(%d) = %v breaks monotonicity", n, cur, n/2, prev)
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
}
