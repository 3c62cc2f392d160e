package benchfix

// Durability fixtures: the checkpoint-encoding cost a search pays at every
// sweep boundary. Shared by internal/phylo's BenchmarkCheckpointWrite and
// cmd/benchreport's CheckpointWrite entry, per the package's
// single-definition rule. (The WAL-append fixture lives in internal/server —
// server.WALAppendLoop — because the log type is unexported there.)

import (
	"context"
	"testing"

	"cellmg/internal/phylo"
)

// CheckpointWrite times encoding one search checkpoint into a reused buffer —
// the marginal cost SearchOptions.Checkpoint adds to each sweep, excluding the
// WAL write behind it. The checkpoint is captured once from a short run of the
// 50-taxon search fixture; the timed loop is AppendBinary alone and must stay
// allocation-free (the phylo test suite asserts zero allocs for the fill+
// encode pair; this benchmark records the time).
func CheckpointWrite() func(b *testing.B) {
	return func(b *testing.B) {
		eng, tree, _, err := SearchEngine()
		if err != nil {
			b.Fatal(err)
		}
		opts := SearchNNIOptions()
		var ckpt *phylo.Checkpoint
		opts.Checkpoint = func(c *phylo.Checkpoint) { ckpt = c }
		var res phylo.SearchResult
		if err := eng.SearchInto(context.Background(), tree, opts, &res); err != nil {
			b.Fatal(err)
		}
		if ckpt == nil {
			b.Fatal("search emitted no checkpoint")
		}
		buf := ckpt.AppendBinary(nil)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = ckpt.AppendBinary(buf[:0])
		}
	}
}
