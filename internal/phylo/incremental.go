package phylo

import "fmt"

// This file implements incremental likelihood evaluation: dirty-node tracking
// for the subtree ("down") conditional vectors, epoch-stamped on-demand
// recomputation of the outer ("out") vectors, and local branch optimization
// around a rearranged edge.
//
// Motivation: the tree search mutates the tree in a constant-size
// neighborhood per NNI candidate, but the seed engine recomputed every
// conditional vector of the tree (a full computeDown + computeOut) before
// every Newton pass, making per-candidate cost O(taxa). RAxML's partial
// traversals are the standard fix: only the vectors an edit actually
// invalidates are recomputed. The bookkeeping here mirrors that:
//
//   - down vectors: a change to the edge above v (length or subtree
//     composition) stales exactly v's ancestor path up to the root.
//     InvalidateEdge/InvalidateNode mark that path, which keeps the dirty set
//     upward-closed: every dirty node is reachable from the root through
//     dirty nodes, so the lazy computeDown can skip clean subtrees without
//     scanning them.
//
//   - out vectors: out[w] reads exactly four things — down[sibling(w)],
//     sibling(w).Length, out[parent(w)] and parent(w).Length — so nothing
//     inside subtree(w), and not w.Length, can change it. A change to the
//     edge above x therefore leaves the out vectors on the root-to-x path
//     (x included) valid and stales every other one. Each node carries an
//     epoch stamp; a materialized change advances the engine's tree epoch
//     and carries the stamps on that path forward with it, and ensureOut
//     recomputes just the stale part of the root-to-edge path it is asked
//     for. Optimizing the handful of branches around one edge thus costs
//     about one out-vector kernel per branch, not one per level of depth.
//
//   - on the serial path the down vectors are settled on demand as well:
//     ensureOut(v) settles only the subtrees it reads — v's own and the
//     sibling subtree of every path node it recomputes — and leaves the
//     dirty ancestors of v to the closing LogLikelihood. Only whole subtrees
//     are ever cleaned, so the dirty set stays upward-closed.
//
// Because each conditional vector is a deterministic function of its inputs,
// skipping the recomputation of a vector whose inputs did not change yields
// bit-identical results to a from-scratch Refresh — the property the
// incremental equivalence tests assert exactly.
//
// Callers that mutate a tree directly (rather than through OptimizeBranch /
// OptimizeAllBranches / OptimizeLocal / the search) must tell the engine:
// InvalidateEdge(v) after changing v.Length, InvalidateNode(n) after changing
// the composition of n's subtree (e.g. after NNIMove.Apply, invalidate the
// move's edge node). Refresh and InvalidateAll remain the full-recompute
// fallbacks and are always safe. Binding a different *Tree to the engine
// discards all tracked state automatically.

// bindTree points the incremental state at t, discarding any state tracked
// for a previous tree. It is idempotent and cheap when t is already bound. A
// tree whose node count is not the one the engine's blocks were sized for
// (NewEngine) cannot be a tree over the engine's alignment: evaluating it is a
// caller bug, reported here rather than as an index past a block.
func (e *Engine) bindTree(t *Tree) {
	if e.lastTree == t {
		return
	}
	if err := e.fits(t); err != nil {
		panic(err)
	}
	e.lastTree = t
	e.markAllDirty()
}

// fits reports whether t has the node count of a binary tree over the
// engine's alignment.
func (e *Engine) fits(t *Tree) error {
	if want := len(e.downDirty); len(t.Nodes) != want {
		return fmt.Errorf("phylo: tree has %d nodes, the engine's %d-taxon alignment takes trees of exactly %d",
			len(t.Nodes), e.Data.NumTaxa(), want)
	}
	return nil
}

// markAllDirty forces the next traversal to recompute everything: every down
// vector is marked stale (and every site-repeat class vector with it — a full
// invalidation may cover composition changes) and the epoch bump puts every
// out stamp in the past.
func (e *Engine) markAllDirty() {
	for i := range e.downDirty {
		e.downDirty[i] = true
		e.repDirty[i] = true
	}
	e.anyDirty = true
	e.treeEpoch++
}

// InvalidateAll marks every conditional vector of the bound tree stale — the
// catch-all for callers that mutated the tree in ways they cannot (or do not
// want to) describe edge by edge. The next traversal is a full recompute.
func (e *Engine) InvalidateAll() {
	if e.lastTree == nil {
		return
	}
	e.markAllDirty()
}

// InvalidateEdge records that the length of the edge above v changed: v's
// strict ancestors' down vectors are stale (each folds v's subtree through
// P(v.Length)), and so is every out vector except those on the root-to-v path
// (v included), which read neither v.Length nor anything below v. Site-repeat
// classes depend only on subtree composition, so they stay valid.
func (e *Engine) InvalidateEdge(v *Node) {
	if e.lastTree == nil || v == nil || v.Parent == nil {
		return
	}
	e.advanceEpoch(v)
	e.markAncestors(v.Parent, false)
}

// InvalidateNode records that the children of n were reassigned among nodes
// that were already inside n.Parent's subtree — what NNIMove.Apply does, and
// the only composition change this call covers (after grafting a subtree from
// elsewhere, use InvalidateAll). n's own down vector and those of all its
// ancestors are stale, along with their site-repeat class vectors, which are
// composition-derived. Everything that moved lies inside subtree(n.Parent),
// so the out vectors on the root-to-n.Parent path stay valid and all others
// are stale; when n is the root no out vector survives.
func (e *Engine) InvalidateNode(n *Node) {
	if e.lastTree == nil || n == nil {
		return
	}
	e.advanceEpoch(n.Parent)
	e.markAncestors(n, true)
}

// advanceEpoch stales every out stamp except the current ones on the
// root-to-keep path (keep included), which move to the new epoch. A nil keep
// stales them all.
func (e *Engine) advanceEpoch(keep *Node) {
	old := e.treeEpoch
	e.treeEpoch++
	for n := keep; n != nil && n.Parent != nil; n = n.Parent {
		if e.outEpoch[n.ID] == old {
			e.outEpoch[n.ID] = e.treeEpoch
		}
	}
}

// markAncestors marks n and its ancestors down-dirty (and, for composition
// changes, repeat-dirty), keeping both dirty sets upward-closed. The walk
// stops early when it meets a node that already carries every mark being
// propagated: its ancestors carry them too by the invariant.
func (e *Engine) markAncestors(n *Node, composition bool) {
	for ; n != nil; n = n.Parent {
		if n.IsTip() {
			continue
		}
		if e.downDirty[n.ID] && (!composition || e.repDirty[n.ID]) {
			return
		}
		e.downDirty[n.ID] = true
		if composition {
			e.repDirty[n.ID] = true
		}
		e.anyDirty = true
	}
}

// downWalk is the lazy post-order Newview sweep: it descends only into dirty
// subtrees (the dirty set is upward-closed, so every dirty node sits below a
// chain of dirty ancestors).
func (e *Engine) downWalk(n *Node) {
	if n.IsTip() || !e.downDirty[n.ID] {
		return
	}
	for _, c := range n.Children {
		e.downWalk(c)
	}
	e.Newview(n)
	e.downDirty[n.ID] = false
}

// ensureOut makes out[v], down[v] and the out vectors of v's ancestors valid
// for the current tree state — everything a branch optimization of the edge
// above v reads. It walks the root-to-v path top-down and recomputes only the
// nodes whose stamp is stale, settling the sibling subtree each of them reads
// first.
func (e *Engine) ensureOut(t *Tree, v *Node) {
	e.bindTree(t)
	e.pathBuf = e.pathBuf[:0]
	for n := v; n.Parent != nil; n = n.Parent {
		e.pathBuf = append(e.pathBuf, n)
	}
	for i := len(e.pathBuf) - 1; i >= 0; i-- {
		n := e.pathBuf[i]
		if e.outEpoch[n.ID] != e.treeEpoch {
			e.downWalk(n.Sibling())
			e.computeOutOne(n.Parent, n)
		}
	}
	e.downWalk(v)
}

// computeOutOne refreshes the outer vector of one child v of u and stamps it
// with the current tree epoch; down[sibling(v)] and out[u] must be current.
// out[v] = (P_sib·down[sib]) ⊙ (out[u]ᵀ·P_u) is a newview: the sibling is the
// left side, and the right side is out[u] through the transpose of u's
// matrices (a column product written as the kernel's row product: the same
// multiplications, added in the same order) or, at the root, the prior.
func (e *Engine) computeOutOne(u, v *Node) {
	e.Stats.OutviewCalls++
	a := &e.nvA
	if u.Parent != nil {
		transposeFlat(e.transT, e.trans.get(u.ID, u.Length))
		a.r = kernelSide{v: e.outVec(u.ID), scale: e.outScaleVec(u.ID), p: e.transT}
	} else {
		prior := e.Model.Frequencies()
		for r := 0; r < e.nCat; r++ {
			copy(e.tipTab[1][r*tipStates*NumStates:], prior[:]) // row 0 of category r
		}
		a.r = kernelSide{states: e.rootStates, tab: e.tipTab[1]}
	}
	e.downSide(&a.l, v.Sibling(), 0)
	a.dst = e.outVec(v.ID)
	a.scale = e.outScaleVec(v.ID)
	e.loop(e.nPat, e.nvFn)
	e.outEpoch[v.ID] = e.treeEpoch
}

// transposeFlat writes the per-category transposes of the flattened matrices
// p into dst.
func transposeFlat(dst, p []float64) {
	for m := 0; m < len(p); m += flatMatSize {
		for i := 0; i < NumStates; i++ {
			for j := 0; j < NumStates; j++ {
				dst[m+j*NumStates+i] = p[m+i*NumStates+j]
			}
		}
	}
}

// collectLocalEdges gathers into e.edgeBuf every node whose edge (to its
// parent) has an endpoint within radius-1 node-hops of the edge above v,
// i.e. of the endpoint set {v, v.Parent}. Radius 1 yields the classic NNI
// quartet neighborhood: v itself, its two children, its sibling and v's
// parent's edge (~5 branches). The scratch buffers are engine-owned, so the
// collection allocates nothing in steady state; the returned slice is valid
// until the next call.
func (e *Engine) collectLocalEdges(t *Tree, v *Node, radius int) []*Node {
	e.bindTree(t)
	e.visitGen++
	gen := e.visitGen
	e.localBuf = e.localBuf[:0]
	e.edgeBuf = e.edgeBuf[:0]
	seed := func(n *Node) {
		if n != nil && e.visitMark[n.ID] != gen {
			e.visitMark[n.ID] = gen
			e.localBuf = append(e.localBuf, n)
		}
	}
	seed(v)
	seed(v.Parent)
	// Breadth-first expansion to radius-1 hops over the unrooted adjacency
	// (parent + children).
	frontier := len(e.localBuf)
	for hop := 1; hop < radius; hop++ {
		start := len(e.localBuf) - frontier
		for _, n := range e.localBuf[start:] {
			seed(n.Parent)
			for _, c := range n.Children {
				seed(c)
			}
		}
		frontier = len(e.localBuf) - start - frontier
		if frontier == 0 {
			break
		}
	}
	addEdge := func(n *Node) {
		if n.Parent != nil && e.edgeMark[n.ID] != gen {
			e.edgeMark[n.ID] = gen
			e.edgeBuf = append(e.edgeBuf, n)
		}
	}
	for _, n := range e.localBuf {
		addEdge(n)
		for _, c := range n.Children {
			addEdge(c)
		}
	}
	return e.edgeBuf
}

// optimizeEdges runs up to the given number of smoothing rounds over a set of
// nodes, each standing for the edge to its parent (a root among them is
// skipped, so t.Nodes is the whole tree's edge set, visited without
// allocating), and returns the tree's log-likelihood. It also reports whether
// the smoothing converged — a full round changed no length materially —
// rather than stopping at the rounds cap while still improving; the search
// uses that to decide whether a final smoothing pass would repeat work or
// continue it.
func (e *Engine) optimizeEdges(t *Tree, edges []*Node, rounds int) (float64, bool) {
	if rounds <= 0 {
		rounds = 1
	}
	converged := false
	for round := 0; round < rounds && !converged; round++ {
		converged = true
		for _, v := range edges {
			if v.Parent != nil && e.optimizeEdge(t, v) {
				converged = false
			}
		}
	}
	return e.LogLikelihood(t), converged
}

// OptimizeLocal Newton-optimizes only the branches within radius node-hops of
// the edge above v — the local re-optimization step of lazy tree search:
// after an NNI rearrangement the move only perturbs a constant-size
// neighborhood, so re-optimizing the ~5 incident branches (radius 1) is
// enough to score the candidate, at a constant number of kernels per branch
// plus one O(depth) settle of the root path for the returned likelihood,
// instead of the O(taxa) of OptimizeAllBranches. It runs up to the given
// number of smoothing rounds over the local set (stopping early once the
// lengths converge) and returns the tree's log-likelihood.
func (e *Engine) OptimizeLocal(t *Tree, v *Node, radius, rounds int) float64 {
	if v == nil || v.Parent == nil {
		return e.OptimizeAllBranches(t, rounds)
	}
	if radius <= 0 {
		radius = 1
	}
	ll, _ := e.optimizeEdges(t, e.collectLocalEdges(t, v, radius), rounds)
	return ll
}
