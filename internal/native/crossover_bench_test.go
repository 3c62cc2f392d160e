package native

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cellmg/internal/phylo"
)

// BenchmarkLoopCrossover records the curve the loop-dispatch constants are
// read from (phylo's loopCrossover, helperSpin and spinYield here; README,
// "Loop crossover", has the table of a run). Every row is ns/op of one loop:
//
//   - host/one_loop and host/two_loops: README's probe of whether this host's
//     second hardware thread is a second core — a fixed multiply-add loop over
//     one Gamma4 vector, alone and beside a copy of itself; two_loops also
//     reports their ratio as "scaling" (2.0 is two cores, 1.0 is one).
//   - pool/borrow_return: what a loop pays the pool whether or not it is
//     shared — Borrow, Release and Depart under the runtime's lock.
//   - empty/spinning and empty/parked: an empty work-shared loop on two
//     workers, handed to a helper still inside its spin bound and to one that
//     has parked (the bound is waited out before every loop).
//   - <kernel>/<patterns>/serial|shared: the engine's newview body (Gamma4
//     and single-rate) and one Newton derivative pass, run whole on the
//     master and split over two workers.
//
// The shared rows must report 0 allocs/op; CI runs the benchmark at a fixed
// count and fails on anything else.
func BenchmarkLoopCrossover(b *testing.B) {
	b.Run("host/one_loop", func(b *testing.B) { hostLoops(b, 1) })
	b.Run("host/two_loops", func(b *testing.B) {
		one := hostLoops(b, 1)
		two := hostLoops(b, 2)
		b.ReportMetric(2*float64(one)/float64(two), "scaling")
	})

	rt := New(Options{Workers: 2, Policy: StaticLLP, SPEsPerLoop: 2})
	defer rt.Close()
	onMaster := func(b *testing.B, fn func(tc *TaskContext)) {
		b.Helper()
		if err := rt.NewSubmitter().Offload(fn); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("pool/borrow_return", func(b *testing.B) {
		onMaster(b, func(tc *TaskContext) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.mu.Lock()
				helpers := rt.pool.Borrow(tc.proc, tc.lent[:0], rt.queued)
				rt.mu.Unlock()
				rt.mu.Lock()
				rt.pool.Release(helpers)
				rt.pool.Depart(tc.proc, rt.active)
				rt.mu.Unlock()
			}
		})
	})
	empty := func(lo, hi int) {}
	b.Run("empty/spinning", func(b *testing.B) {
		onMaster(b, func(tc *TaskContext) {
			tc.ParallelFor(1024, empty)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.ParallelFor(1024, empty)
			}
		})
	})
	b.Run("empty/parked", func(b *testing.B) {
		onMaster(b, func(tc *TaskContext) {
			var inLoops time.Duration
			for i := 0; i < b.N; i++ {
				time.Sleep(2 * helperSpin)
				start := time.Now()
				tc.ParallelFor(1024, empty)
				inLoops += time.Since(start)
			}
			b.ReportMetric(float64(inLoops)/float64(b.N), "ns/op")
		})
	})

	gamma, err := phylo.DiscreteGamma(0.8, 4)
	if err != nil {
		b.Fatal(err)
	}
	so := phylo.DefaultSimulateOptions()
	so.Taxa, so.Length, so.Seed, so.Rates, so.MeanBranchLength = 14, 30000, 2, gamma, 0.2
	_, aln, err := phylo.Simulate(so)
	if err != nil {
		b.Fatal(err)
	}
	all, err := phylo.Compress(aln)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name, body string
		rates      phylo.RateCategories
	}{
		{"newview_gamma4", "newview", gamma},
		{"newview_single", "newview", phylo.SingleRate()},
		{"newton_gamma4", "newton", gamma},
	} {
		for _, patterns := range []int{64, 128, 256, 512, 1024, 4096} {
			if all.NumPatterns() < patterns {
				b.Fatalf("the simulated alignment has %d patterns, the curve needs %d", all.NumPatterns(), patterns)
			}
			keep := make([]float64, all.NumPatterns())
			for i := 0; i < patterns; i++ {
				keep[i] = all.Weights[i]
			}
			data, err := all.WithWeights(keep)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := phylo.NewEngine(data, phylo.NewJC69(), k.rates)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := phylo.NewRandomTree(data.Names, rand.New(rand.NewSource(5)))
			if err != nil {
				b.Fatal(err)
			}
			eng.Refresh(tree)
			// An inner node with two inner children: both sides of the kernel
			// are the four-by-four products, the dearest and commonest case.
			var node *phylo.Node
			for _, n := range tree.Nodes {
				if n.Parent != nil && !n.IsTip() && !n.Children[0].IsTip() && !n.Children[1].IsTip() {
					node = n
					break
				}
			}
			if node == nil {
				b.Fatal("no inner node with two inner children in the benchmark tree")
			}
			body := eng.LoopBody(k.body, node)
			b.Run(fmt.Sprintf("%s/%d/serial", k.name, patterns), func(b *testing.B) {
				onMaster(b, func(tc *TaskContext) {
					body(0, patterns)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body(0, patterns)
					}
				})
			})
			b.Run(fmt.Sprintf("%s/%d/shared", k.name, patterns), func(b *testing.B) {
				onMaster(b, func(tc *TaskContext) {
					tc.ParallelFor(patterns, body)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						tc.ParallelFor(patterns, body)
					}
				})
			})
		}
	}
}

// hostLoops runs README's compute loop — multiply-adds over 3 × 297 × 16
// float64s, one Gamma4 conditional-likelihood vector of the single_search
// alignment with its two inputs — on the given number of goroutines at once,
// b.N times each, and returns how long that took; the benchmark's own timer
// restarts with it.
func hostLoops(b *testing.B, goroutines int) time.Duration {
	var wg sync.WaitGroup
	sinks := make([]float64, goroutines)
	b.ResetTimer()
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, 3*297*16)
			for i := range buf {
				buf[i] = 1 + float64(i%7)/8
			}
			acc := 0.0
			for rep := 0; rep < b.N; rep++ {
				for i := range buf {
					acc = acc*0.999 + buf[i]
				}
			}
			sinks[g] = acc
		}()
	}
	wg.Wait()
	return time.Since(start)
}
