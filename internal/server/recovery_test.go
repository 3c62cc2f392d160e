package server

// Crash-recovery property tests: for every WAL record type, kill the
// (simulated) process at that record boundary, restart on the same data dir,
// and require the recovered jobs to finish with results byte-identical to an
// uninterrupted run of the same specs. Plus the drain contract: 503 +
// Retry-After at the admission boundary, bounded shutdown, zero lost jobs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cellmg/internal/faultinject"
	"cellmg/internal/phylo"
)

// mediumSpec is a four-task job whose searches each run several sweeps, so
// every task writes more than one checkpoint.
func mediumSpec(seed int64) JobSpec {
	return JobSpec{
		Seed:       seed,
		Inferences: 1,
		Bootstraps: 3,
		Search:     SearchSpec{SmoothingRounds: 4, MaxRounds: 8, Epsilon: 1e-9},
		Simulate:   &SimulateSpec{Taxa: 12, Length: 500, Seed: seed},
	}
}

// referenceResult runs a spec on a clean in-memory server and returns the
// canonical JSON of its result — the byte-identity baseline. Results are
// cached per seed across subtests.
var (
	refMu    sync.Mutex
	refCache = map[int64][]byte{}
)

func referenceResult(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if enc, ok := refCache[spec.Seed]; ok {
		return enc
	}
	srv := New(Options{Workers: 4, MaxConcurrent: 1})
	defer srv.Close()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("reference run for seed %d timed out", spec.Seed)
	}
	if j.State() != StateDone {
		t.Fatalf("reference run for seed %d finished %s", spec.Seed, j.State())
	}
	enc := resultJSON(t, j)
	refCache[spec.Seed] = enc
	return enc
}

// resultJSON is the job's result as its status serves it.
func resultJSON(t *testing.T, j *Job) []byte {
	t.Helper()
	enc, err := json.Marshal(j.Status(time.Now()).Result)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// serverJobs snapshots the job table.
func serverJobs(s *Server) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

func waitAllTerminal(t *testing.T, s *Server, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for _, j := range serverJobs(s) {
		select {
		case <-j.Done():
		case <-deadline:
			t.Fatalf("job %s still %s at the deadline", j.ID, j.State())
		}
	}
}

// TestCrashRecoveryKillAtEveryRecordType is the acceptance property: a crash
// at ANY record boundary leaves the log in a state whose recovery reproduces
// the uninterrupted results bit for bit. Each subtest arms a deterministic
// kill at the first record of one type, runs a workload that emits all six
// types, "restarts" on the same dir, and compares results.
//
// Job A's accepted spec carries the retired search.speculation field, as the
// stores of earlier binaries do: it must replay, resume and finish with the
// result of the same spec without the field.
func TestCrashRecoveryKillAtEveryRecordType(t *testing.T) {
	specA, specB := smallSpec(71), smallSpec(72)
	refA := referenceResult(t, specA)
	refB := referenceResult(t, specB)
	specA.Search.Speculation = 4

	for _, tag := range []string{
		"job_accepted", "job_started", "checkpoint",
		"task_done", "job_finished", "job_cancelled",
	} {
		t.Run(tag, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(faultinject.Rule{
				Op: faultinject.OpWALAppend, Tag: tag,
				Action: faultinject.Action{Kill: true},
			})
			srv, err := Open(Options{
				Workers: 4, MaxConcurrent: 1,
				DataDir: dir, FaultInjector: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Workload covering every record type: job A runs to completion
			// (accepted, started, checkpoints, task_dones, finished); job B is
			// cancelled while queued behind it (cancelled).
			a, err := srv.Submit(specA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := srv.Submit(specB)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, cancelled := srv.Cancel(b.ID); !cancelled {
				t.Fatal("job B was not cancellable while queued")
			}
			select {
			case <-a.Done():
			case <-time.After(2 * time.Minute):
				t.Fatal("job A did not finish")
			}
			if !inj.Dead() {
				t.Fatalf("workload never wrote a %s record; the kill never fired", tag)
			}
			srv.Close() // post-kill writes were already silently dropped

			// Restart: a fresh server on the same dir, no faults.
			srv2, err := Open(Options{
				Workers: 4, MaxConcurrent: 2,
				DataDir:      dir,
				RetryBackoff: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			waitAllTerminal(t, srv2, 2*time.Minute)

			jobs := serverJobs(srv2)
			if tag == "job_accepted" {
				// A's accept record was the kill point, so nothing about A (or
				// anything after) ever reached the disk: the restarted server
				// must know no jobs at all — a lost-before-durable submission,
				// not a lost job.
				if len(jobs) != 0 {
					t.Fatalf("recovered %d jobs, want 0 (accept record was killed)", len(jobs))
				}
				return
			}
			byID := map[string]*Job{}
			for _, j := range jobs {
				byID[j.ID] = j
			}
			ja := byID[a.ID]
			if ja == nil {
				t.Fatalf("job A (%s) lost across the crash", a.ID)
			}
			if ja.State() != StateDone {
				t.Fatalf("job A recovered to %s, want done", ja.State())
			}
			// The core property: byte-identical to the uninterrupted run,
			// whatever mix of replayed tasks and resumed checkpoints got A
			// there.
			if got := resultJSON(t, ja); !bytes.Equal(got, refA) {
				t.Errorf("job A's recovered result differs from the clean run:\n got %s\nwant %s", got, refA)
			}
			// Job B: if its cancellation record survived it stays cancelled;
			// if the cancel was lost (the job_cancelled kill point, or a race
			// with the kill) the job legitimately re-runs — then its result
			// must also be byte-identical.
			if jb := byID[b.ID]; jb != nil {
				switch jb.State() {
				case StateCancelled:
				case StateDone:
					if got := resultJSON(t, jb); !bytes.Equal(got, refB) {
						t.Errorf("job B's recovered result differs from the clean run")
					}
				default:
					t.Errorf("job B recovered to %s", jb.State())
				}
			}
			d := srv2.Metrics().Durability
			if d == nil || d.RecoveredJobs < 1 {
				t.Errorf("durability metrics did not count the recovery: %+v", d)
			}
		})
	}
}

// TestDrainRejectsNewJobsWith503RetryAfter covers the admission boundary:
// once draining, POST /v1/jobs gets 503 with a Retry-After hint while
// already-accepted work keeps running.
func TestDrainRejectsNewJobsWith503RetryAfter(t *testing.T) {
	srv, ts := startServer(t, Options{Workers: 2, MaxConcurrent: 1})
	st := submit(t, ts.URL, longSpec(81))

	drained := make(chan struct{})
	go func() {
		srv.Drain(time.Minute)
		close(drained)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(smallSpec(82))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain is missing the Retry-After header")
	}

	// The running job is untouched by the drain gate; cancel it so the drain
	// completes promptly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("drain did not complete after the last job finished")
	}
}

// TestDrainTimeoutCheckpointsAndResumes is the zero-lost-jobs half: a drain
// that times out aborts the running job WITHOUT finishing it, the queued job
// is preserved, and the next incarnation completes both — the running one
// from its checkpoints — with byte-identical results, within the timeout
// bound.
func TestDrainTimeoutCheckpointsAndResumes(t *testing.T) {
	specRun, specQueued := mediumSpec(91), smallSpec(92)
	refRun := referenceResult(t, specRun)
	refQueued := referenceResult(t, specQueued)

	// The running job is held inside its SECOND checkpoint append for longer
	// than the drain lasts, so it is mid-search with a checkpoint on record
	// when the drain aborts it, however fast the engine is.
	const timeout = 150 * time.Millisecond
	inj := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Tag: "checkpoint", After: 1,
			Action: faultinject.Action{Stall: 10 * timeout}},
	)
	dir := t.TempDir()
	srv, err := Open(Options{
		Workers: 4, MaxConcurrent: 1,
		DataDir:       dir,
		FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Submit(specRun)
	if err != nil {
		t.Fatal(err)
	}
	bJob, err := srv.Submit(specQueued)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); !inj.Fired(0); {
		if time.Now().After(deadline) {
			t.Fatal("the running job never reached its second checkpoint")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	srv.Drain(timeout)
	if took := time.Since(start); took > timeout+5*time.Second {
		t.Fatalf("drain took %v, far beyond its %v timeout", took, timeout)
	}
	if a.State().Terminal() {
		t.Fatalf("drain-aborted job was finished as %s; it must stay incomplete for resume", a.State())
	}

	srv2, err := Open(Options{
		Workers: 4, MaxConcurrent: 2,
		DataDir:      dir,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	d := srv2.Metrics().Durability
	if d.RecoveredJobs != 2 {
		t.Fatalf("recovered %d jobs, want both (running + queued)", d.RecoveredJobs)
	}
	if d.RecoveredCheckpoints < 1 {
		t.Fatal("the aborted job left no checkpoint to resume from")
	}
	waitAllTerminal(t, srv2, 2*time.Minute)
	for id, want := range map[string][]byte{a.ID: refRun, bJob.ID: refQueued} {
		j, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the drain", id)
		}
		if j.State() != StateDone {
			t.Fatalf("job %s recovered to %s", id, j.State())
		}
		if got := resultJSON(t, j); !bytes.Equal(got, want) {
			t.Errorf("job %s: recovered result differs from the clean run", id)
		}
	}
}

// TestWALFailureDegradesToInMemory: a store whose disk fails keeps serving —
// jobs still run and finish; the failure is visible in the metrics.
func TestWALFailureDegradesToInMemory(t *testing.T) {
	inj := faultinject.New(
		faultinject.Rule{Op: faultinject.OpWALAppend, Tag: "job_accepted",
			Action: faultinject.Action{Err: errTestDisk}},
	)
	srv, err := Open(Options{
		Workers: 2, MaxConcurrent: 1,
		DataDir: t.TempDir(), FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := srv.Submit(smallSpec(61))
	if err != nil {
		t.Fatalf("submit must survive a degraded WAL, got %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not finish on a degraded server")
	}
	if j.State() != StateDone {
		t.Fatalf("job finished %s on a degraded server", j.State())
	}
	d := srv.Metrics().Durability
	if !d.Degraded || d.WALErrors < 1 {
		t.Fatalf("degradation not reported: %+v", d)
	}
}

// replayCopy replays a copy of the data dir's log as it stands — what a
// process killed at this instant would restart from — and returns the jobs
// it would recover.
func replayCopy(t *testing.T, dir string) map[string]*recoveredJob {
	t.Helper()
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(seg.path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, jobs := openTestStore(t, cp)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// replayedState names what a replay made of a job: absent, incomplete or its
// terminal state.
func replayedState(r *recoveredJob) string {
	switch {
	case r == nil:
		return "absent"
	case r.incomplete():
		return "incomplete"
	}
	return string(r.state)
}

// TestCancelRecordDurableBeforeAnswer: a job the client was told was refused
// or cancelled must never run after a crash. Two paths write job_cancelled
// for an accepted job and answer at once: Submit when the queue refuses the
// job after its accepted record is durable, and Cancel of a queued job. Right
// after each answers, a replay of the log as it stands must hold the job as
// cancelled, not incomplete. The refusal is staged by stalling the second
// accepted record while a third job takes the one queue slot.
func TestCancelRecordDurableBeforeAnswer(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Tag: "job_accepted", After: 1,
		Action: faultinject.Action{Stall: 300 * time.Millisecond},
	})
	srv, err := Open(Options{
		Workers: 2, MaxConcurrent: 1, QueueCapacity: 1,
		DataDir: dir, FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	running, err := srv.Submit(longSpec(81))
	if err != nil {
		t.Fatal(err)
	}
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	refused := make(chan error, 1)
	go func() {
		_, err := srv.Submit(smallSpec(82)) // j-000002: stalls in its accepted record
		refused <- err
	}()
	for !inj.Fired(0) {
		time.Sleep(time.Millisecond)
	}
	queued, err := srv.Submit(smallSpec(83)) // j-000003: takes the queue's one slot
	if err != nil {
		t.Fatal(err)
	}
	var ae *admissionError
	if err := <-refused; !errors.As(err, &ae) || ae.code != http.StatusTooManyRequests {
		t.Fatalf("the stalled submission got %v, want a 429 refusal", err)
	}
	if r := replayCopy(t, dir)["j-000002"]; r == nil || r.state != StateCancelled {
		t.Errorf("right after the refusal, replay holds the refused job as %s, want cancelled", replayedState(r))
	}
	if _, _, cancelled := srv.Cancel(queued.ID); !cancelled {
		t.Fatal("queued job was not cancellable")
	}
	if r := replayCopy(t, dir)[queued.ID]; r == nil || r.state != StateCancelled {
		t.Errorf("right after the cancel, replay holds the queued job as %s, want cancelled", replayedState(r))
	}
	srv.Cancel(running.ID)
}

var errTestDisk = &testDiskError{}

type testDiskError struct{}

func (*testDiskError) Error() string { return "injected disk error" }

// TestPoisonJobFailsAfterMaxAttempts: a job whose log shows MaxJobAttempts
// prior incarnations is failed terminally at recovery instead of crash-looping
// the server.
func TestPoisonJobFailsAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openJobStore(walOptions{dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.jobAccepted("j-000001", smallSpec(51)); err != nil {
		t.Fatal(err)
	}
	st.jobStarted("j-000001", 3) // three incarnations already crashed
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := Open(Options{
		Workers: 2, DataDir: dir,
		MaxJobAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, ok := srv.Job("j-000001")
	if !ok {
		t.Fatal("poison job vanished")
	}
	if j.State() != StateFailed {
		t.Fatalf("poison job recovered to %s, want failed", j.State())
	}
	// And the failure is durable: another restart must not resurrect it.
	srv.Close()
	srv2, err := Open(Options{Workers: 2, DataDir: dir, MaxJobAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if j2, ok := srv2.Job("j-000001"); !ok || j2.State() != StateFailed {
		t.Fatal("poison job's terminal failure did not survive the next restart")
	}
}

// TestCancelCancelledJobConflicts: DELETE of an already-cancelled job is 409
// like any other terminal state (the old behaviour treated it as success).
func TestCancelCancelledJobConflicts(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, MaxConcurrent: 1})
	// Occupy the runner so the victim stays queued and cancellable.
	long := submit(t, ts.URL, longSpec(41))
	victim := submit(t, ts.URL, smallSpec(42))

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(victim.ID); code != http.StatusAccepted {
		t.Fatalf("first cancel: status %d, want 202", code)
	}
	if code := del(victim.ID); code != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", code)
	}
	del(long.ID) // free the runner before cleanup
}

// sseEvents reads a finished job's whole event stream, resuming after the
// given event id when it is positive, and returns the "id: " lines.
func sseEvents(t *testing.T, base, id string, after int) []string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(after))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "id: ") {
			ids = append(ids, sc.Text())
		}
	}
	return ids
}

// released waits until retire has released j — the terminal state is visible
// a moment before retire runs — and reports what the job still holds of its
// inputs and run machinery, empty when it holds none.
func released(t *testing.T, j *Job) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		j.mu.Lock()
		ctx := j.runCtx
		j.mu.Unlock()
		if ctx == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still holds its run context a minute after it ended", j.ID)
		}
		time.Sleep(time.Millisecond)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var held []string
	if j.Spec.Sequences != nil {
		held = append(held, fmt.Sprintf("%d inline sequences", len(j.Spec.Sequences)))
	}
	if j.data != nil {
		held = append(held, "its alignment")
	}
	if j.cancel != nil {
		held = append(held, "its run context's cancel")
	}
	if j.collector != nil {
		held = append(held, "its off-load collector")
	}
	if j.skipTasks != nil || j.resumes != nil {
		held = append(held, fmt.Sprintf("recovery maps (%d tasks, %d checkpoints)", len(j.skipTasks), len(j.resumes)))
	}
	return strings.Join(held, ", ")
}

// TestTerminalJobReleasesInputs: a finished job keeps only what a client can
// still ask for. At retire its inline sequences, its alignment, its run
// context, its off-load collector and — on a job recovered from the WAL — the
// replayed task outcomes and checkpoints are released, and everything a
// client can still ask of it answers as before: the status (byte for byte,
// off-load summary included), an SSE replay resumed with Last-Event-ID, and
// the job restored from the WAL by the next incarnation. The second job's
// finished record is lost to a simulated kill, so the next incarnation
// recovers it with both tasks done and finishes it from them.
func TestTerminalJobReleasesInputs(t *testing.T) {
	_, aln, err := phylo.Simulate(phylo.SimulateOptions{Taxa: 6, Length: 120, Seed: 5, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Seed: 3, Inferences: 1, Bootstraps: 1,
		Search: SearchSpec{SmoothingRounds: 2, MaxRounds: 2, Epsilon: 0.05}}
	for i, name := range aln.Names {
		spec.Sequences = append(spec.Sequences, SequenceSpec{Name: name, Seq: string(aln.Seqs[i])})
	}
	want := referenceResult(t, spec)

	dir := t.TempDir()
	open := func(inj *faultinject.Injector) (*Server, *httptest.Server) {
		srv, err := Open(Options{Workers: 2, MaxConcurrent: 1, DataDir: dir, FaultInjector: inj})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	// checkReleased holds a terminal job to the contract above; before is
	// its status body as first read once terminal.
	checkReleased := func(srv *Server, ts *httptest.Server, id string, before []byte) {
		t.Helper()
		j, _ := srv.Job(id)
		if held := released(t, j); held != "" {
			t.Errorf("%s: released job still holds %s", id, held)
		}
		if got := resultJSON(t, j); !bytes.Equal(got, want) {
			t.Errorf("%s: status result of the released job differs from the reference run", id)
		}
		if _, after := get(t, ts.URL+"/v1/jobs/"+id); !bytes.Equal(after, before) {
			t.Errorf("%s: status changed at release:\nbefore %s\n after %s", id, before, after)
		}
		all := sseEvents(t, ts.URL, id, 0)
		if len(all) < 3 {
			t.Fatalf("%s: event replay of the released job has %d events", id, len(all))
		}
		if got := sseEvents(t, ts.URL, id, 2); !slices.Equal(got, all[2:]) {
			t.Errorf("%s: replay after event 2 = %v, want %v", id, got, all[2:])
		}
	}
	// terminalBody waits for the job to end and returns its first terminal
	// status body, read before or after release, whichever comes first.
	terminalBody := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		if st := waitTerminal(t, ts.URL, id, time.Minute); st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
		_, body := get(t, ts.URL+"/v1/jobs/"+id)
		return body
	}

	inj := faultinject.New(faultinject.Rule{
		Op: faultinject.OpWALAppend, Tag: "job_finished", After: 1,
		Action: faultinject.Action{Kill: true},
	})
	srv, ts := open(inj)
	id := submit(t, ts.URL, spec).ID
	checkReleased(srv, ts, id, terminalBody(ts, id))
	if st := getStatus(t, ts.URL, id); st.Offloads.Offloads == 0 {
		t.Error("released job's status reports no off-loads: the collector's summary was not kept")
	}
	lost := submit(t, ts.URL, spec).ID
	terminalBody(ts, lost)
	if !inj.Dead() {
		t.Fatal("the second job's finished record was never written; the kill never fired")
	}
	ts.Close()
	srv.Close()

	srv2, ts2 := open(nil)
	defer srv2.Close()
	defer ts2.Close()
	st2 := getStatus(t, ts2.URL, id)
	enc, err := json.Marshal(st2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !bytes.Equal(enc, want) {
		t.Errorf("job restored from the WAL: state %s, result equal to reference: %v", st2.State, bytes.Equal(enc, want))
	}
	if j2, _ := srv2.Job(id); j2.Spec.Sequences != nil {
		t.Error("job restored from the WAL holds its inline sequences again")
	}
	if d := srv2.Metrics().Durability; d == nil || d.RecoveredTasks != int64(spec.tasks()) {
		t.Fatalf("the lost job was not recovered with its %d tasks done: %+v", spec.tasks(), d)
	}
	checkReleased(srv2, ts2, lost, terminalBody(ts2, lost))
}
