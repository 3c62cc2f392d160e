package benchfix

import (
	"context"
	"testing"

	"cellmg/internal/flight"
	"cellmg/internal/native"
	"cellmg/internal/phylo"
)

// FlightWorkers is the pool size of the recorder-overhead benchmarks: wide
// enough that every ParallelFor is work-shared (and therefore recorded), small
// enough to run on any CI machine.
const FlightWorkers = 4

// flightRuntime builds the recorder-overhead benchmark runtime: StaticLLP at
// full width so every pattern loop goes through the traced ParallelFor path.
// traced=false runs the identical topology with a nil recorder — the baseline
// that isolates recording cost from runtime cost.
func flightRuntime(traced bool) (*native.Runtime, *flight.Recorder) {
	var rec *flight.Recorder
	if traced {
		rec = flight.New(flight.Config{Workers: FlightWorkers})
	}
	rt := native.New(native.Options{
		Workers:     FlightWorkers,
		Policy:      native.StaticLLP,
		SPEsPerLoop: FlightWorkers,
		Flight:      rec,
	})
	return rt, rec
}

// EvaluateFullSweepFlight is EvaluateFullSweep with its pattern loops
// work-shared on a native runtime; traced toggles the flight recorder. The
// traced/untraced pair bounds the recorder's overhead on the hottest record
// path (one loop span per ParallelFor, one kernel+queue span per off-load).
func EvaluateFullSweepFlight(traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt, _ := flightRuntime(traced)
		defer rt.Close()
		eng, tree, err := KernelEngine(phylo.NewJC69(), phylo.SingleRate())
		if err != nil {
			b.Fatal(err)
		}
		sub := rt.NewSubmitter()
		sub.SetFlow(1)
		b.ReportAllocs()
		err = sub.Offload(func(tc *native.TaskContext) {
			eng.SetParallel(tc.ParallelFor)
			eng.LogLikelihood(tree) // warm buffers, caches, and the loop path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.InvalidateAll()
				eng.LogLikelihood(tree)
			}
			b.StopTimer()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// SearchNNIFlight is the incremental-mode SearchNNI run on a native runtime;
// traced toggles the flight recorder. A search emits far more ParallelFor
// loops per second than the full-sweep benchmark, so this is the adversarial
// case for record-path overhead. Like SearchNNI, the engine and tree live
// outside the timed loop and each op restores the starting topology, so every
// iteration is the same allocation-free search.
func SearchNNIFlight(traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		rt, _ := flightRuntime(traced)
		defer rt.Close()
		eng, tree, snap, err := SearchEngine()
		if err != nil {
			b.Fatal(err)
		}
		sub := rt.NewSubmitter()
		sub.SetFlow(1)
		b.ReportAllocs()
		err = sub.Offload(func(tc *native.TaskContext) {
			eng.SetParallel(tc.ParallelFor)
			opts := SearchNNIOptions()
			var res phylo.SearchResult
			run := func() float64 {
				if err := snap.Restore(tree); err != nil {
					b.Fatal(err)
				}
				eng.InvalidateAll()
				if err := eng.SearchInto(context.Background(), tree, opts, &res); err != nil {
					b.Fatal(err)
				}
				return res.LogLikelihood
			}
			run() // warm: testing.Benchmark may settle on N=1, which must not be a cold run
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.ReportMetric(run(), "logL")
			}
			b.StopTimer()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
