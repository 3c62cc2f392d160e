package server

// Job store: the meaning of the WAL records and the recovery replay. Each
// job writes its lifecycle as records keyed by job id — accepted (spec),
// started (attempt count), per-task checkpoints and completions, and a
// terminal record — so a restart can rebuild every job's exact position:
//
//	accepted ──▶ started ──▶ checkpoint*/task_done* ──▶ finished
//	     │                                        └──▶ cancelled
//	     └── (replayed incomplete ⇒ re-enqueued, tasks skipped/resumed)
//
// Trees and search checkpoints are stored via the phylo binary codecs —
// exact float64 bits — because recovery promises byte-identical results and
// Newick's fixed-precision formatting would break that.
//
// Compaction happens at open, and only there: after replay, the records
// still needed (those of incomplete jobs, with only the LATEST checkpoint per
// task) are rewritten into the fresh segment, and once it is synced all
// older segments are deleted (a crash between leaves duplicates, which replay
// folds). Terminal jobs leave the log entirely; their results live in the
// server's bounded in-memory retention, same as before this file existed.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"cellmg/internal/native"
	"cellmg/internal/phylo"
)

// storedTask is a completed task replayed from the log.
type storedTask struct {
	logLik float64
	tree   []byte // phylo.AppendTreeBinary bytes
}

// recoveredJob is one job's replayed state.
type recoveredJob struct {
	id       string
	seq      int // replay order of the accepted record, for deterministic re-enqueue
	spec     JobSpec
	accepted []byte // the job_accepted payload, which compaction rewrites as is
	attempts int
	state    State // terminal state, or StateQueued if incomplete
	errMsg   string
	result   *Result
	tasks    map[native.TaskID]storedTask
	ckpts    map[native.TaskID][]byte // latest encoded phylo.Checkpoint per task
}

// incomplete reports whether the job still has work to recover.
func (r *recoveredJob) incomplete() bool { return !r.state.Terminal() }

// jobStore frames job lifecycle records over the WAL. All methods are safe
// for concurrent use — checkpoints and task completions arrive from many
// task goroutines at once; each encodes its payload into a local buffer and
// the WAL serializes the frame writes.
type jobStore struct {
	wal *wal
}

// openJobStore opens (or creates) the store in dir, replays it, compacts the
// live records into a fresh segment, and returns the recovered jobs keyed by
// id. The returned slice orders incomplete jobs by original acceptance.
func openJobStore(opts walOptions) (*jobStore, map[string]*recoveredJob, error) {
	w, records, err := openWAL(opts)
	if err != nil {
		return nil, nil, err
	}
	jobs, err := replayJobRecords(records)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	st := &jobStore{wal: w}
	if err := st.compact(jobs); err != nil {
		w.Close()
		return nil, nil, err
	}
	return st, jobs, nil
}

// replayJobRecords folds the record stream into per-job state. Records for
// unknown jobs (their accepted record fell in a torn tail) are skipped, not
// fatal: recovery restores the maximal consistent prefix.
func replayJobRecords(records []walRecord) (map[string]*recoveredJob, error) {
	jobs := map[string]*recoveredJob{}
	for i, rec := range records {
		// Frame CRCs have already vouched for the bytes, so a failure here
		// means a version-skewed or hand-edited log.
		d := phylo.NewDecoder(rec.payload)
		id := string(d.Bytes())
		if d.Err() != nil {
			return nil, fmt.Errorf("wal: record %d (%s): %v", i, rec.typ, d.Err())
		}
		j := jobs[id]
		if rec.typ == recJobAccepted {
			if j != nil {
				continue // duplicate accept (compaction replay); first wins
			}
			j = &recoveredJob{
				id: id, seq: i, state: StateQueued, accepted: rec.payload,
				tasks: map[native.TaskID]storedTask{},
				ckpts: map[native.TaskID][]byte{},
			}
			if err := json.Unmarshal(d.Bytes(), &j.spec); err != nil {
				return nil, fmt.Errorf("wal: job %s spec: %v", id, err)
			}
			jobs[id] = j
			continue
		}
		if j == nil {
			continue // job's accept record was lost to a torn tail
		}
		switch rec.typ {
		case recJobStarted:
			if j.attempts = int(d.Uvarint()); j.attempts < 0 {
				return nil, fmt.Errorf("wal: job %s: attempt count out of range", id)
			}
		case recCheckpoint:
			key := native.TaskID{Bootstrap: d.Bool(), Index: int(d.Uvarint())}
			enc := d.Bytes()
			if d.Err() == nil {
				j.ckpts[key] = enc
			}
		case recTaskDone:
			key := native.TaskID{Bootstrap: d.Bool(), Index: int(d.Uvarint())}
			logLik := math.Float64frombits(d.U64())
			tree := d.Bytes()
			if d.Err() == nil {
				j.tasks[key] = storedTask{logLik: logLik, tree: tree}
				delete(j.ckpts, key) // the checkpoint is subsumed
			}
		case recJobFinished:
			j.state = State(d.Bytes())
			j.errMsg = string(d.Bytes())
			if res := d.Bytes(); d.Err() == nil && len(res) > 0 {
				j.result = &Result{}
				if err := json.Unmarshal(res, j.result); err != nil {
					return nil, fmt.Errorf("wal: job %s result: %v", id, err)
				}
			}
			if !j.state.Terminal() {
				return nil, fmt.Errorf("wal: job %s finished with non-terminal state %q", id, j.state)
			}
		case recJobCancelled:
			j.state = StateCancelled
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("wal: record %d (%s): %v", i, rec.typ, d.Err())
		}
	}
	return jobs, nil
}

// compact rewrites the live subset of the replayed state into the log's
// fresh segment, syncs it, and deletes the older ones. Only incomplete jobs
// survive; per task, only the completion or the latest checkpoint.
func (st *jobStore) compact(jobs map[string]*recoveredJob) error {
	for _, j := range sortedRecoveredJobs(jobs) {
		if !j.incomplete() {
			continue
		}
		// The sync below covers every rewritten accept at once.
		if err := st.wal.append(recJobAccepted, j.accepted); err != nil {
			return err
		}
		if j.attempts > 0 {
			st.jobStarted(j.id, j.attempts)
		}
		for key, task := range j.tasks {
			st.taskDone(j.id, key, task.logLik, task.tree)
		}
		for key, enc := range j.ckpts {
			st.checkpoint(j.id, key, enc)
		}
	}
	if err := st.wal.sync(); err != nil {
		return err
	}
	return st.wal.dropOlderSegments()
}

// sortedRecoveredJobs orders jobs by original acceptance for deterministic
// compaction and re-enqueue order.
func sortedRecoveredJobs(jobs map[string]*recoveredJob) []*recoveredJob {
	out := make([]*recoveredJob, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	for i := 1; i < len(out); i++ { // insertion sort; recovery-path only
		for k := i; k > 0 && out[k-1].seq > out[k].seq; k-- {
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
	return out
}

// --- record writers -------------------------------------------------------

// jobAccepted durably records an accepted job; the 202 must not outrun it.
func (st *jobStore) jobAccepted(id string, spec JobSpec) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var p []byte
	p = appendStr(p, id)
	p = appendLenBytes(p, specJSON)
	return st.wal.appendDurable(recJobAccepted, p)
}

// jobStarted records an execution attempt (1-based count so far).
func (st *jobStore) jobStarted(id string, attempt int) {
	var p []byte
	p = appendStr(p, id)
	p = binary.AppendUvarint(p, uint64(attempt))
	_ = st.wal.append(recJobStarted, p)
}

// checkpoint records a task's latest sweep-boundary checkpoint (already
// encoded with phylo's codec). Fire-and-forget: a lost checkpoint only costs
// recompute time, never correctness.
func (st *jobStore) checkpoint(id string, task native.TaskID, enc []byte) {
	var p []byte
	p = appendStr(p, id)
	p = appendBool(p, task.Bootstrap)
	p = binary.AppendUvarint(p, uint64(task.Index))
	p = appendLenBytes(p, enc)
	_ = st.wal.append(recCheckpoint, p)
}

// taskDone records a completed task with its exact tree bits.
func (st *jobStore) taskDone(id string, task native.TaskID, logLik float64, treeBytes []byte) {
	var p []byte
	p = appendStr(p, id)
	p = appendBool(p, task.Bootstrap)
	p = binary.AppendUvarint(p, uint64(task.Index))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(logLik))
	p = appendLenBytes(p, treeBytes)
	_ = st.wal.append(recTaskDone, p)
}

// jobFinished records the terminal state (done or failed) with the result's
// JSON (encodeResult; nil for none).
func (st *jobStore) jobFinished(id string, state State, errMsg string, resJSON []byte) {
	var p []byte
	p = appendStr(p, id)
	p = appendStr(p, string(state))
	p = appendStr(p, errMsg)
	p = appendLenBytes(p, resJSON)
	_ = st.wal.append(recJobFinished, p)
}

// jobCancelled durably records a cancellation — including of a recovered job
// that never got re-admitted, and of an accepted one the queue then refused —
// so no replay resurrects a job whose client was told it was cancelled or
// refused. A degraded log does not fail the cancellation; the error counter
// records the exposure.
func (st *jobStore) jobCancelled(id string) {
	var p []byte
	p = appendStr(p, id)
	_ = st.wal.appendDurable(recJobCancelled, p)
}

// Close flushes and closes the underlying log.
func (st *jobStore) Close() error { return st.wal.Close() }

// --- payload codec --------------------------------------------------------

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendLenBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
