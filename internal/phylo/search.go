package phylo

import (
	"context"
	"fmt"
	"math/rand"
)

// SearchOptions controls the hill-climbing tree search.
type SearchOptions struct {
	// SmoothingRounds is the number of branch-length smoothing passes after
	// each accepted topology change.
	SmoothingRounds int
	// MaxRounds bounds the number of full NNI sweeps.
	MaxRounds int
	// Epsilon is the minimum log-likelihood improvement that counts as
	// progress.
	Epsilon float64
	// Seed drives the randomized starting tree.
	Seed int64
	// Progress, when non-nil, is invoked after every completed NNI sweep
	// (and once before the first). It must be cheap; it runs on the search's
	// goroutine (under the native runtime, that is the task's master worker).
	Progress func(SearchProgress)
	// Checkpoint, when non-nil, is invoked at every sweep boundary (once
	// after the initial branch-length optimization, then after each completed
	// sweep's consolidation smoothing) with the search's restartable state.
	// The *Checkpoint is engine-owned and reused across emissions: encode it
	// (AppendBinary) inside the callback if it must outlive the call. It runs
	// on the search goroutine and must be cheap; the intended use is
	// appending the encoded bytes to a write-ahead log.
	Checkpoint func(*Checkpoint)
	// Resume, when non-nil, restarts the search from the given sweep
	// boundary instead of building and optimizing a starting tree: the
	// checkpointed topology and branch lengths are restored bit-exactly, the
	// conditional-likelihood vectors recomputed (Refresh), and the sweep loop
	// continued at the recorded round — producing results byte-identical to
	// the uninterrupted run. The checkpoint must Match the engine's
	// alignment, model and rates.
	Resume *Checkpoint
}

// nniRadius is the neighborhood re-optimized around a rearranged edge when
// scoring an NNI candidate: radius 1 covers the ~5 branches of the classic
// quartet around the edge, which is what RAxML's lazy SPR/NNI scoring
// re-optimizes as well.
const nniRadius = 1

// SearchProgress is a snapshot handed to SearchOptions.Progress.
type SearchProgress struct {
	// Round is the number of completed NNI sweeps (0 before the first).
	Round int
	// MaxRounds echoes the option, so a callback can compute a fraction.
	MaxRounds int
	// LogLikelihood is the incumbent log-likelihood.
	LogLikelihood float64
	// NNIEvaluated and NNIAccepted count rearrangements so far.
	NNIEvaluated int
	NNIAccepted  int
}

// DefaultSearchOptions returns the settings used by the examples and
// benchmarks: a handful of smoothing rounds and NNI sweeps, which is enough
// for the small-to-medium alignments this repository ships.
func DefaultSearchOptions() SearchOptions {
	return SearchOptions{
		SmoothingRounds: 4,
		MaxRounds:       8,
		Epsilon:         0.01,
		Seed:            1,
	}
}

// SearchResult is the outcome of one tree search (one "inference" or one
// bootstrap replicate in RAxML terminology).
type SearchResult struct {
	Tree          *Tree
	LogLikelihood float64
	StartLogLik   float64
	NNIAccepted   int
	NNIEvaluated  int
	Rounds        int
	// Always zero; retained for bench/, go when it next revises its metric list.
	SpecScored int
	SpecWasted int
}

// Search runs a randomized-starting-tree hill-climbing search: build a random
// stepwise-addition tree, optimize its branch lengths, then repeatedly sweep
// all nearest-neighbour interchanges, accepting improvements, until a sweep
// yields none (or MaxRounds is reached).
//
// Candidate evaluation is incremental: applying a move invalidates only the
// rearranged edge's ancestor path, scoring re-optimizes only the ~5 branches
// around the edge (OptimizeLocal), and the full-tree branch optimization runs
// only when a move is accepted — per-candidate cost is O(1) likelihood
// kernels plus an O(depth) partial traversal instead of an O(taxa) full
// refresh.
func (e *Engine) Search(opts SearchOptions) (*SearchResult, error) {
	return e.SearchContext(context.Background(), opts)
}

// SearchContext is Search with cancellation: the search checks ctx between
// NNI evaluations and aborts with ctx's error, so a cancelled caller gets its
// worker back after at most one branch-optimization pass rather than after
// the full search.
func (e *Engine) SearchContext(ctx context.Context, opts SearchOptions) (*SearchResult, error) {
	var tree *Tree
	var err error
	if opts.Resume != nil {
		// The checkpointed topology replaces the randomized starting tree:
		// the search RNG was fully consumed building it before the
		// checkpoint, so nothing else needs the generator.
		tree, err = opts.Resume.BuildTree()
	} else {
		rng := rand.New(rand.NewSource(opts.Seed))
		tree, err = NewRandomTree(e.Data.Names, rng)
	}
	if err != nil {
		return nil, err
	}
	res := &SearchResult{}
	if err := e.SearchInto(ctx, tree, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// snapshotLengths copies the branch lengths of the given edge nodes into the
// engine's search scratch. A rejected rearrangement must leave no trace: the
// candidate evaluation re-optimizes branch lengths, and keeping those for a
// reverted topology would poison subsequent comparisons. Only the branches
// the evaluation actually touches (the local neighborhood) are snapshotted,
// into buffers reused across all moves of the whole search.
func (e *Engine) snapshotLengths(nodes []*Node) {
	e.savedNodes = append(e.savedNodes[:0], nodes...)
	e.savedLens = e.savedLens[:0]
	for _, n := range nodes {
		e.savedLens = append(e.savedLens, n.Length)
	}
}

// restoreLengths undoes the length changes recorded by snapshotLengths.
func (e *Engine) restoreLengths() {
	for i, n := range e.savedNodes {
		n.Length = e.savedLens[i]
		e.InvalidateEdge(n)
	}
}

// reportProgress invokes the Progress callback, if any.
func reportProgress(opts *SearchOptions, res *SearchResult, best float64) {
	if opts.Progress == nil {
		return
	}
	opts.Progress(SearchProgress{
		Round:         res.Rounds,
		MaxRounds:     opts.MaxRounds,
		LogLikelihood: best,
		NNIEvaluated:  res.NNIEvaluated,
		NNIAccepted:   res.NNIAccepted,
	})
}

// SearchInto runs the hill-climbing search from a given starting tree (which
// is modified in place) into a caller-provided result: the allocation-free
// form of the search. Every piece of per-move and per-sweep
// scratch — candidate length snapshots, the move list, the local edge sets,
// traversal stacks, validation marks — lives on the engine and is reused, so
// a steady-state search (settled scratch capacities) performs zero heap
// allocations; alloc_test.go pins that with an AllocsPerRun guard. res is
// fully overwritten.
func (e *Engine) SearchInto(ctx context.Context, tree *Tree, opts SearchOptions, res *SearchResult) error {
	if opts.SmoothingRounds <= 0 {
		opts.SmoothingRounds = 1
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 1
	}
	if err := e.fits(tree); err != nil {
		return err
	}
	if len(e.valSeen) < len(tree.Taxa) {
		e.valSeen = make([]bool, len(tree.Taxa))
	}
	clear(e.valSeen)
	var err error
	if e.valStack, err = tree.validate(e.valStack, e.valSeen); err != nil {
		return fmt.Errorf("phylo: invalid starting tree: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	*res = SearchResult{Tree: tree}
	// smoothConverged tracks whether the tree currently sits in the state of
	// a *converged* full smoothing pass (as opposed to one stopped at the
	// SmoothingRounds cap while still improving); rejected candidates are
	// restored byte-exactly, so only accepted moves and the smoothing calls
	// themselves change it. cont carries the loop-continue decision across
	// sweep boundaries so a resumed search re-enters (or skips) the loop
	// exactly where the uninterrupted run would.
	var best float64
	var smoothConverged bool
	lastSweepImproved := false
	cont := true
	startRound := 0
	if c := opts.Resume; c != nil {
		// Resume at a checkpointed sweep boundary: restore the exact
		// topology and branch-length bits, recompute the conditional vectors
		// from them (Refresh; byte-identical to the incrementally maintained
		// state the uninterrupted run holds here), and re-enter the loop at
		// the recorded round. The initial branch optimization is NOT re-run:
		// its effect is part of the restored state.
		if err := c.Matches(e); err != nil {
			return err
		}
		if err := c.Topo.Restore(tree); err != nil {
			return fmt.Errorf("phylo: resume: %v", err)
		}
		e.Refresh(tree)
		res.Rounds = c.Round
		res.NNIEvaluated = c.NNIEvaluated
		res.NNIAccepted = c.NNIAccepted
		res.StartLogLik = c.StartLogLik
		best = c.Best
		smoothConverged = c.SmoothConverged
		lastSweepImproved = c.LastSweepImproved
		// A round-0 checkpoint precedes the first sweep; later boundaries
		// continue only if the recorded sweep improved, mirroring the
		// uninterrupted run's break.
		cont = c.Round == 0 || c.LastSweepImproved
		startRound = c.Round
	} else {
		best, smoothConverged = e.optimizeEdges(tree, tree.Nodes, opts.SmoothingRounds)
		res.StartLogLik = best
	}
	reportProgress(&opts, res, best)

	if opts.Resume == nil {
		// The round-0 boundary: starting tree built and smoothed, no sweep
		// yet. Persisting it means a crash during the first sweep resumes
		// from here instead of re-deriving the starting tree.
		e.emitCheckpoint(&opts, res, tree, best, smoothConverged, false)
	}

	for round := startRound; cont && round < opts.MaxRounds; round++ {
		res.Rounds++
		improvedThisRound := false
		e.movesBuf = tree.AppendNNIMoves(e.movesBuf[:0])
		for _, move := range e.movesBuf {
			if err := ctx.Err(); err != nil {
				return err
			}
			res.NNIEvaluated++
			move.Apply()
			e.InvalidateNode(move.Edge)
			// Local re-optimization: the move only perturbed a constant-size
			// neighborhood, so re-optimizing the branches around the
			// rearranged edge is enough to score it. Candidates get the same
			// smoothing budget as the incumbent so the comparison is fair;
			// the optimizers stop early once the branch lengths converge.
			e.snapshotLengths(e.collectLocalEdges(tree, move.Edge, nniRadius))
			candidate, _ := e.optimizeEdges(tree, e.savedNodes, opts.SmoothingRounds)
			if candidate > best+opts.Epsilon {
				best = candidate
				res.NNIAccepted++
				improvedThisRound = true
			} else {
				move.Apply() // revert the topology...
				e.InvalidateNode(move.Edge)
				e.restoreLengths()
			}
		}
		if improvedThisRound {
			// One full smoothing pass per sweep consolidates the accepted
			// rearrangements (every edge update is monotone, so this can
			// only raise the score) — the RAxML pattern: local optimization
			// scores candidates, global optimization runs once per round
			// rather than once per accepted move.
			best, smoothConverged = e.optimizeEdges(tree, tree.Nodes, opts.SmoothingRounds)
		}
		reportProgress(&opts, res, best)
		lastSweepImproved = improvedThisRound
		cont = improvedThisRound
		e.emitCheckpoint(&opts, res, tree, best, smoothConverged, improvedThisRound)
	}
	// Final thorough smoothing — skipped only when it would be a
	// deterministic repeat: the tree sits in the state of a full smoothing
	// pass that *converged* (the final sweep accepted nothing and restored
	// every rejected candidate byte-exactly). When the last smoothing instead
	// stopped at the SmoothingRounds cap while still improving, or fresh
	// accepts arrived in the final sweep, this pass continues the smoothing —
	// worth whole logL units on 50-taxon searches.
	if lastSweepImproved || !smoothConverged {
		best = e.OptimizeAllBranches(tree, opts.SmoothingRounds)
	}
	res.LogLikelihood = best
	return nil
}
