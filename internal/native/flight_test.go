package native

import (
	"math"
	"sync/atomic"
	"testing"

	"cellmg/internal/flight"
	"cellmg/internal/phylo"
)

// TestFlightRecordsOffloadLifecycle checks the runtime emits queue and
// kernel spans (and loop spans under LLP) tagged with the submitter's flow.
func TestFlightRecordsOffloadLifecycle(t *testing.T) {
	needTwoProcessors(t)
	rec := flight.New(flight.Config{Workers: 4, LaneEvents: 256})
	rt := New(Options{Workers: 4, Policy: StaticLLP, SPEsPerLoop: 4, Flight: rec})
	defer rt.Close()

	if rt.Flight() != rec {
		t.Fatal("runtime does not expose its recorder")
	}
	sub := rt.NewSubmitter()
	sub.SetFlow(99)
	var total int64
	err := sub.Offload(func(tc *TaskContext) {
		tc.ParallelFor(228, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 228 {
		t.Fatalf("loop covered %d iterations", total)
	}

	snap := rec.Snapshot()
	var queues, kernels, loops int
	for _, ev := range snap.Events {
		if ev.ID != 99 {
			t.Errorf("event not tagged with flow: %+v", ev)
		}
		switch ev.Kind {
		case flight.KindQueue:
			queues++
			if ev.A != int64(1) { // first submitter id
				t.Errorf("queue span submitter = %d", ev.A)
			}
			if ev.B != 1 {
				t.Errorf("queue span workers = %d, want 1: a task is granted its master", ev.B)
			}
		case flight.KindKernel:
			kernels++
			if ev.Dur <= 0 {
				t.Errorf("kernel span has no duration: %+v", ev)
			}
			if ev.B != 4 {
				t.Errorf("kernel span workers = %d, want 4: the task's widest loop", ev.B)
			}
		case flight.KindLoop:
			loops++
			if ev.A != 228 {
				t.Errorf("loop span n = %d, want 228", ev.A)
			}
			if workers, share := ev.B>>32, ev.B&0xffffffff; workers != 4 || share != 57 {
				t.Errorf("loop span: %d workers, shares of %d; want 4 and 228/4 = 57", workers, share)
			}
		}
	}
	if queues != 1 || kernels != 1 || loops != 1 {
		t.Fatalf("spans queue=%d kernel=%d loop=%d, want 1 each\n%s",
			queues, kernels, loops, snap.Summary())
	}
}

// TestFlightRecordsMGPSInstants drives enough single-submitter off-loads
// through an MGPS runtime to force window evaluations and at least one
// degree switch, and checks the policy lane carries them.
func TestFlightRecordsMGPSInstants(t *testing.T) {
	rec := flight.New(flight.Config{Workers: 4, LaneEvents: 256})
	rt := New(Options{Workers: 4, Policy: MGPS, Flight: rec})
	defer rt.Close()

	// One lone submitter: U=1 <= threshold, so MGPS must switch to LLP at
	// the first window boundary.
	sub := rt.NewSubmitter()
	for i := 0; i < 12; i++ {
		if err := sub.Offload(func(tc *TaskContext) {}); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Evaluations == 0 {
		t.Fatal("MGPS never evaluated a window; test premise broken")
	}

	snap := rec.Snapshot()
	var evals, switches int
	for _, ev := range snap.Events {
		switch ev.Kind {
		case flight.KindEval:
			evals++
			if int(ev.Lane) != rec.PolicyLane() {
				t.Errorf("eval instant on lane %d, want policy lane %d", ev.Lane, rec.PolicyLane())
			}
			if ev.A != 1 {
				t.Errorf("eval U = %d, want 1 (single submitter)", ev.A)
			}
		case flight.KindSwitch:
			switches++
		}
	}
	if evals != st.Evaluations {
		t.Errorf("recorded %d eval instants, runtime counted %d", evals, st.Evaluations)
	}
	if switches != st.Switches {
		t.Errorf("recorded %d switch instants, runtime counted %d", switches, st.Switches)
	}
	if switches == 0 {
		t.Error("expected at least one degree switch under a lone submitter")
	}
}

// TestFlightAnalysisRecordsSweeps runs a tiny analysis with a recorder and
// checks NNI sweep instants arrive tagged with the FlightID, with a sane
// logL payload.
func TestFlightAnalysisRecordsSweeps(t *testing.T) {
	rec := flight.New(flight.Config{Workers: 4, LaneEvents: 1024})
	rt := New(Options{Workers: 4, Policy: MGPS, Flight: rec})
	defer rt.Close()

	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 8, Length: 200, Seed: 5, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAnalysis(rt, data, AnalysisOptions{
		Inferences: 1,
		Bootstraps: 2,
		Seed:       42,
		Search:     phylo.SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01},
		FlightID:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTree == nil {
		t.Fatal("no best tree")
	}

	snap := rec.Snapshot().Filter(7)
	var sweeps, kernels int
	for _, ev := range snap.Events {
		switch ev.Kind {
		case flight.KindSweep:
			sweeps++
			logL := math.Float64frombits(uint64(ev.B))
			if !(logL < 0) || math.IsNaN(logL) {
				t.Errorf("sweep logL = %v, want negative finite", logL)
			}
			if evaluated := ev.A & 0xffffffff; evaluated < 0 {
				t.Errorf("sweep evaluated = %d", evaluated)
			}
		case flight.KindKernel:
			kernels++
		}
	}
	// 3 tasks, each reporting progress at least twice (initial + >=1 sweep).
	if sweeps < 6 {
		t.Errorf("sweep instants = %d, want >= 6\n%s", sweeps, snap.Summary())
	}
	if kernels != 3 {
		t.Errorf("kernel spans = %d, want 3 (1 inference + 2 bootstraps)", kernels)
	}
}

// TestFlightDoesNotPerturbDeterminism: the same analysis with and without a
// recorder must produce bit-identical results.
func TestFlightDoesNotPerturbDeterminism(t *testing.T) {
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 8, Length: 200, Seed: 5, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := phylo.Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	opts := AnalysisOptions{
		Inferences: 2,
		Bootstraps: 2,
		Seed:       123,
		Search:     phylo.SearchOptions{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.01},
	}

	run := func(rec *flight.Recorder) *AnalysisResult {
		rt := New(Options{Workers: 4, Policy: MGPS, Flight: rec})
		defer rt.Close()
		o := opts
		o.FlightID = 1
		res, err := RunAnalysis(rt, data, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(flight.New(flight.Config{Workers: 4}))
	if plain.BestLogLik != traced.BestLogLik {
		t.Errorf("best logL differs with recorder: %v vs %v", plain.BestLogLik, traced.BestLogLik)
	}
	for i := range plain.InferenceLogs {
		if plain.InferenceLogs[i] != traced.InferenceLogs[i] {
			t.Errorf("inference %d logL differs: %v vs %v", i, plain.InferenceLogs[i], traced.InferenceLogs[i])
		}
	}
}

// TestParallelForWithFlightAllocationFree extends the steady-state
// allocation guard to a recorder-enabled runtime: tracing a work-shared
// loop must not allocate either.
func TestParallelForWithFlightAllocationFree(t *testing.T) {
	needTwoProcessors(t)
	rec := flight.New(flight.Config{Workers: 4, LaneEvents: 64})
	rt := New(Options{Workers: 4, Policy: StaticLLP, SPEsPerLoop: 4, Flight: rec})
	defer rt.Close()

	var avg float64
	var total int64
	body := func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) }
	err := rt.NewSubmitter().Offload(func(tc *TaskContext) {
		tc.ParallelFor(228, body) // warm
		avg = testing.AllocsPerRun(100, func() { tc.ParallelFor(228, body) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("traced ParallelFor allocates %v per loop in steady state, want 0", avg)
	}
}

// TestFlightConcurrentSubmitters exercises many submitters recording onto
// shared lanes; under -race this is the integration-level data-race gate.
func TestFlightConcurrentSubmitters(t *testing.T) {
	rec := flight.New(flight.Config{Workers: 4, LaneEvents: 128})
	rt := New(Options{Workers: 4, Policy: MGPS, Flight: rec})
	defer rt.Close()

	done := make(chan error, 8)
	for s := 0; s < 8; s++ {
		sub := rt.NewSubmitter()
		sub.SetFlow(uint64(s + 1))
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				err = sub.Offload(func(tc *TaskContext) {
					tc.ParallelFor(64, func(lo, hi int) {})
				})
			}
			done <- err
		}()
	}
	for s := 0; s < 8; s++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	snap := rec.Snapshot()
	if len(snap.Events) == 0 {
		t.Fatal("no events recorded")
	}
}
