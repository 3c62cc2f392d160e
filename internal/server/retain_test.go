package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellmg/internal/phylo"
)

// TestFinishedJobRetainedBytes: a terminal job stays queryable until
// MaxFinishedJobs evicts it, so what it keeps is paid once per retained job.
// It must keep only what a client can still ask for — its status, its result
// and its event stream as wire bytes — not the payload maps, the run context,
// the off-load collector or the builder slack of its Newick strings. 500 jobs
// of the benchmark's serve_small shape (8 taxa × 200 sites inline, one
// inference and one bootstrap, smoothing 1 / rounds 1 / ε 0.1) run through an
// in-memory server; the live heap may grow by at most 3,000 B per job (about
// 4,400 B while every event kept its map and the job its run machinery).
func TestFinishedJobRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 jobs; skipped in -short mode")
	}
	const (
		jobs     = 500
		clients  = 4
		maxBytes = 3000
	)
	specs := make([]JobSpec, 16)
	for i := range specs {
		_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 8, Length: 200, Seed: int64(100 + i), MeanBranchLength: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = JobSpec{Tenant: "bench", Seed: int64(i + 1), Inferences: 1, Bootstraps: 1,
			Search: SearchSpec{SmoothingRounds: 1, MaxRounds: 1, Epsilon: 0.1}}
		for k, name := range aln.Names {
			specs[i].Sequences = append(specs[i].Sequences, SequenceSpec{Name: name, Seq: string(aln.Seqs[k])})
		}
	}
	s := New(Options{Workers: 2, MaxFinishedJobs: 2 * jobs})
	defer s.Close()
	run := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < n; i += clients {
					j, err := s.Submit(specs[i%len(specs)])
					if err != nil {
						t.Error(err)
						return
					}
					<-j.Done()
					if st := j.State(); st != StateDone {
						t.Errorf("job %s ended %s", j.ID, st)
					}
				}
			}()
		}
		wg.Wait()
		// Done() closes before retire releases the job; the runner's slot is
		// given back after.
		for s.running.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	run(len(specs)) // warm-up: pools, histograms, tenant tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(jobs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if t.Failed() {
		return
	}
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / jobs
	if perJob > maxBytes {
		t.Errorf("each finished job keeps %d B of live heap, want at most %d", perJob, maxBytes)
	} else {
		t.Logf("each finished job keeps %d B of live heap", perJob)
	}
}

// TestReleaseWhileReadersRun: release runs while HTTP handlers may still read
// the job — status polls, a DELETE's cancel, the tenant roll-up, event
// streams — so under -race none of those may touch what release clears
// without the job's lock. The run context is cancelled on the way out.
func TestReleaseWhileReadersRun(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	j := s.newJob("j-release", JobSpec{Bootstraps: 1}, nil)
	ctx, _, ok := j.start()
	if !ok {
		t.Fatal("a new job did not start")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	readsPast := func(n int64) {
		for reads.Load() < n {
			runtime.Gosched()
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				j.Status(time.Now())
				j.offloadSummary()
				j.events.After(0)
				if i == 0 {
					j.cancelRun()
				}
				reads.Add(1)
			}
		}()
	}
	readsPast(100)
	if j.settle(StateCancelled, nil, "") {
		j.announce(StateCancelled, nil, "")
	}
	j.release()
	readsPast(reads.Load() + 100)
	close(stop)
	wg.Wait()
	if ctx.Err() == nil {
		t.Error("release left the run context live")
	}
	if st := j.Status(time.Now()); st.State != StateCancelled || st.Result != nil {
		t.Errorf("released job reads %s with result %v", st.State, st.Result)
	}
}
