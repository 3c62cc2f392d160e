package server

// BenchmarkWALAppend is a thin wrapper over WALAppendBench, the loop body the
// bench/ module also times (server.wal_append_us) — see walbench.go.

import "testing"

func BenchmarkWALAppend(b *testing.B) {
	WALAppendBench(b.TempDir())(b)
}
