package main

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"cellmg/internal/native"
	"cellmg/internal/phylo"
)

// timePerCall runs fn for about budget and returns the mean microseconds per
// call. The clock is read once per 16 calls so that reading it stays out of
// a sub-microsecond body.
func timePerCall(budget time.Duration, fn func()) float64 {
	const batch = 16
	fn() // warm caches and lazily sized buffers
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(t0)) / 1e3 / float64(calls)
}

// kernelProbes times the paper's three off-loaded kernels, and the checkpoint
// encoder every sweep of a durable job pays, on this workload's own
// alignment, model and rates — so single_search reads Gamma4 kernels and
// batch_bootstraps single-rate ones.
func (w *analysisWorkload) kernelProbes(tr *tracer, parent int, budget time.Duration, out *outcome) error {
	s := tr.begin("phylo.kernel_probes", parent)
	defer tr.end(s)

	eng, err := phylo.NewEngine(w.data, w.opts.Model, w.rates)
	if err != nil {
		return err
	}
	tree, err := phylo.NewRandomTree(w.data.Names, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	eng.LogLikelihood(tree)

	var node *phylo.Node
	phylo.PostOrder(tree.Root, func(n *phylo.Node) {
		if node == nil && !n.IsTip() && n.Parent != nil {
			node = n
		}
	})
	out.set("phylo.newview_us", timePerCall(budget, func() {
		//cellmg:allow invalidation -- kernel timing; inputs unchanged, the recomputed vector is bit-identical
		eng.Newview(node)
	}))
	out.set("phylo.evaluate_full_us", timePerCall(budget, func() {
		eng.InvalidateAll()
		eng.LogLikelihood(tree)
	}))

	// One-edge re-evaluation, the path the search lives on: both lengths are
	// warmed by timePerCall's first calls, so the transition cache hits.
	edge := tree.Edges()[len(tree.Edges())/2]
	lengths := [2]float64{0.05, 0.06}
	flip := 0
	out.set("phylo.evaluate_incr_us", timePerCall(budget, func() {
		edge.Length = lengths[flip%2]
		flip++
		eng.InvalidateEdge(edge)
		eng.LogLikelihood(tree)
	}))
	out.set("phylo.makenewz_us", timePerCall(budget, func() {
		eng.OptimizeBranch(tree, edge)
	}))

	// The checkpoint handed to the hook is engine-owned, so it is encoded
	// (and the encoding timed) inside the first emission; cancelling there
	// ends the search at its next candidate.
	so := w.opts.Search
	so.Seed = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf []byte
	so.Checkpoint = func(c *phylo.Checkpoint) {
		if buf != nil {
			return
		}
		buf = make([]byte, 0, 1<<16)
		out.set("phylo.checkpoint_encode_us", timePerCall(budget, func() {
			buf = c.AppendBinary(buf[:0])
		}))
		cancel()
	}
	if _, err := eng.SearchContext(ctx, so); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// nativePrimitives times the two costs the paper measures first: one empty
// off-load round trip, and one empty work-shared loop over the whole pool.
// The second bounds what loop-level parallelism can win per loop.
func nativePrimitives(tr *tracer, parent, workers int, budget time.Duration, out *outcome) error {
	s := tr.begin("native.primitives", parent)
	defer tr.end(s)

	rt := native.New(native.Options{Policy: native.EDTLP, Workers: workers})
	sub := rt.NewSubmitter()
	var offErr error
	out.set("native.offload_empty_us", timePerCall(budget, func() {
		if err := sub.Offload(func(*native.TaskContext) {}); err != nil {
			offErr = err
		}
	}))
	rt.Close()
	if offErr != nil {
		return offErr
	}

	rt = native.New(native.Options{Policy: native.StaticLLP, Workers: workers, SPEsPerLoop: workers})
	defer rt.Close()
	err := rt.NewSubmitter().Offload(func(tc *native.TaskContext) {
		out.set("native.parallelfor_empty_us", timePerCall(budget, func() {
			tc.ParallelFor(1024, func(lo, hi int) {})
		}))
	})
	if err == nil && workers > 1 && rt.Stats().LoopsWorkShared == 0 {
		err = errors.New("the empty ParallelFor probe was never work-shared")
	}
	return err
}
