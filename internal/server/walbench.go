package server

// WALAppendBench is the shared loop body behind BenchmarkWALAppend (this
// package's bench_test.go) and the bench/ module's server.wal_append_us
// metric. The log type is unexported, so the fixture is exported from here:
// both surfaces time exactly this function, only the temp-dir plumbing
// differs.

import (
	"testing"
)

// walBenchPayloadBytes sizes each benchmark record: a search checkpoint for
// the 50-taxon bench fixture is a few hundred bytes, so 512 is the realistic
// per-sweep payload (job-store framing adds the 9-byte header plus the
// id/task prefix on top).
const walBenchPayloadBytes = 512

// WALAppendBench measures appending one checkpoint-sized record to the job
// log under group-commit fsync batching: the per-record time is the
// durability overhead a running job pays per checkpoint, with the fsync
// amortised over the whole batch (sync lands once per run of b.N). The loop
// must stay allocation-free — the payload is copied into the log's write
// buffer, never retained. dir must be empty; the log left in it belongs to
// the caller to remove.
func WALAppendBench(dir string) func(b *testing.B) {
	return func(b *testing.B) {
		w, _, err := openWAL(walOptions{dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		payload := make([]byte, walBenchPayloadBytes)
		for i := range payload {
			payload[i] = byte(i)
		}
		run := func(n int) error {
			for i := 0; i < n; i++ {
				if err := w.append(recCheckpoint, payload); err != nil {
					return err
				}
			}
			return w.sync()
		}
		if err := run(16); err != nil { // warm: segment open, buffer sizing
			b.Fatal(err)
		}
		b.SetBytes(walBenchPayloadBytes + walHeaderSize)
		b.ReportAllocs()
		b.ResetTimer()
		if err := run(b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer() // keep the deferred Close's extra fsync out of the number
	}
}
