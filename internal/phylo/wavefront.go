//cellmg:deterministic
package phylo

// This file implements wavefront dispatch of the conditional-vector sweeps:
// instead of visiting dirty nodes one at a time and work-sharing only the
// per-pattern loop inside each node (fine grain), the dirty set is batched
// into dependency levels — every node in a level depends only on nodes of
// earlier levels — and each level is dispatched through ParallelFor as a
// whole. This is the second half of the paper's multigrain idea applied
// inside one inference: when the per-node loops are too short to amortize
// work-sharing (few patterns), the engine switches the dispatch grain from
// patterns to nodes.
//
// Grain selection: a level runs node-grain when it has at least two nodes,
// the pattern count is at most nodeGrainMaxPatterns, and the level fits the
// transition-cache slab survival window (see prepare below); otherwise the
// level falls back to per-node pattern-grain dispatch (the classic path).
// Large alignments keep pattern-grain — their per-node loops are long enough
// to split — and small alignments batch whole nodes, which is exactly the
// multigrain switch of the source paper, chosen here by a static pattern
// threshold rather than the runtime's calibration machinery.
//
// Determinism: the kernels write per-pattern outputs that depend only on the
// settled inputs of earlier levels, never on sibling nodes of the same level,
// so the computed vectors are byte-identical to the serial post-order sweep
// no matter how a level's nodes are split across workers (parallel_test.go).
//
// Concurrency contract of the node-grain path: everything shared is prepared
// serially before the dispatch — transition matrices (cache inserts mutate
// the engine-wide map), site-repeat class maintenance (rebuildClasses writes
// the engine-wide pair table), and every kernel argument block — and the
// parallel bodies then touch only their own nodeKernel slot plus disjoint
// destination vectors. The node-grain path therefore REQUIRES the transition
// cache: with the cache off, transitionFlat serves matrices from two shared
// scratch slots that the next prepare would overwrite (useWavefront gates on
// cacheOn for exactly this reason).

import "cellmg/internal/flight"

// nodeGrainMaxPatterns is the pattern count above which a level keeps
// pattern-grain dispatch: per-node loops beyond this length amortize
// work-sharing fine on their own, and splitting them across workers keeps
// the working set of each worker contiguous.
const nodeGrainMaxPatterns = 2048

// maxKernsPerDispatch bounds the node-grain level width. The prepare phase
// holds transition-cache entries across the whole level; entries survive
// exactly one cache-overflow slab swap, and a prepare inserts at most two
// entries per unit, so bounding the width at maxCacheEntries/4 keeps a level
// at most one swap away from every entry it still holds.
const maxKernsPerDispatch = maxCacheEntries / 4

// nodeKernel is the per-slot argument block of a node-grain dispatch: the
// kernel arguments prepared serially, plus private tip lookup tables so the
// parallel body can expand its own tip cases without touching the engine's
// shared pair (e.tipTab).
type nodeKernel struct {
	nv     newviewArgs
	out    computeOutArgs
	tipTab [2][]float64
	node   *Node
}

// useWavefront reports whether the leveled sweeps should run: they pay off
// only with a real worker group behind ParallelFor, and the node-grain path
// needs the transition cache (see the file comment).
//
//cellmg:hotpath
func (e *Engine) useWavefront() bool {
	return e.waveOn && e.parWidth > 1 && e.cacheOn
}

// nodePar returns the executor for node-grain dispatches: the dedicated
// heavy-loop executor when one is installed (SetParallelNode), else the
// pattern-loop executor.
//
//cellmg:hotpath
func (e *Engine) nodePar() ParallelFor {
	if e.parNode != nil {
		return e.parNode
	}
	return e.par
}

// growWaveKerns makes sure at least n kernel slots exist, allocating tip
// tables only for the new ones (steady state reuses the high-water mark).
//
//cellmg:hotpath-safe -- allocates only while the wavefront scratch grows; steady state guarded by alloc_test.go
func (e *Engine) growWaveKerns(n int) {
	for len(e.waveKerns) < n {
		e.waveKerns = append(e.waveKerns, nodeKernel{})
		k := &e.waveKerns[len(e.waveKerns)-1]
		k.tipTab[0] = make([]float64, e.nCat*tipStates*NumStates)
		k.tipTab[1] = make([]float64, e.nCat*tipStates*NumStates)
	}
}

// collectDirty appends every dirty internal node under n to e.waveNodes and
// returns its dependency level: 0 for a node whose dirty children are all
// settled (tips or clean subtrees), else one past the deepest dirty child.
// The dirty set is upward-closed, so clean subtrees prune the walk exactly
// like the serial downWalk.
//
//cellmg:hotpath-safe -- allocates only while the collection scratch grows; steady state guarded by alloc_test.go
func (e *Engine) collectDirty(n *Node) int32 {
	if n.IsTip() || !e.downDirty[n.ID] {
		return -1
	}
	maxc := int32(-1)
	for _, c := range n.Children {
		if cl := e.collectDirty(c); cl > maxc {
			maxc = cl
		}
	}
	lvl := maxc + 1
	e.waveLevel[n.ID] = lvl
	e.waveNodes = append(e.waveNodes, n)
	if lvl+1 > e.waveMax {
		e.waveMax = lvl + 1
	}
	return lvl
}

// computeDownWave is the leveled form of the lazy Newview sweep: collect the
// dirty set with its dependency levels, bucket it into level order (a CSR
// counting sort over engine scratch), then dispatch each level — all nodes of
// a level have settled children, so they recompute concurrently.
//
//cellmg:hotpath-safe -- allocates only while the wavefront scratch grows; steady state guarded by alloc_test.go
func (e *Engine) computeDownWave(t *Tree) {
	var t0 flight.Time
	if e.rec != nil {
		t0 = e.rec.Now()
	}
	if len(e.waveLevel) < len(t.Nodes) {
		e.waveLevel = make([]int32, len(t.Nodes))
	}
	e.waveNodes = e.waveNodes[:0]
	e.waveMax = 0
	e.collectDirty(t.Root)
	n := len(e.waveNodes)
	if n == 0 {
		return
	}
	nl := int(e.waveMax)
	if cap(e.waveOff) < nl+1 {
		e.waveOff = make([]int32, nl+1)
		e.waveCursor = make([]int32, nl+1)
	}
	off := e.waveOff[:nl+1]
	for i := range off {
		off[i] = 0
	}
	for _, nd := range e.waveNodes {
		off[e.waveLevel[nd.ID]+1]++
	}
	for i := 1; i <= nl; i++ {
		off[i] += off[i-1]
	}
	cur := e.waveCursor[:nl]
	copy(cur, off[:nl])
	if cap(e.waveSorted) < n {
		e.waveSorted = make([]*Node, n)
	}
	sorted := e.waveSorted[:n]
	// The scatter keeps the collection (post-order) order within each level,
	// so prepare-phase side effects (kernel statistics, cache insert order)
	// are deterministic.
	for _, nd := range e.waveNodes {
		l := e.waveLevel[nd.ID]
		sorted[cur[l]] = nd
		cur[l]++
	}
	grainLevels := 0
	for l := 0; l < nl; l++ {
		if e.dispatchDownLevel(sorted[off[l]:off[l+1]]) {
			grainLevels++
		}
	}
	if e.rec != nil {
		e.rec.Span(e.recLane, flight.KindWave, e.recFlow, t0,
			int64(n), int64(nl)<<32|int64(grainLevels))
	}
}

// dispatchDownLevel recomputes one dependency level and reports whether it
// ran node-grain. The pattern-grain fallback is the plain Newview path, one
// node at a time with its per-pattern loop work-shared.
//
//cellmg:hotpath-safe -- allocates only while the wavefront scratch grows; steady state guarded by alloc_test.go
func (e *Engine) dispatchDownLevel(lvl []*Node) bool {
	if len(lvl) < 2 || e.nPat > nodeGrainMaxPatterns || len(lvl) > maxKernsPerDispatch {
		for _, nd := range lvl {
			e.Newview(nd)
			e.downDirty[nd.ID] = false
		}
		return false
	}
	e.growWaveKerns(len(lvl))
	for i, nd := range lvl {
		e.prepareDownKernel(&e.waveKerns[i], nd)
	}
	e.nodePar()(len(lvl), e.waveDownFn)
	for _, nd := range lvl {
		e.downDirty[nd.ID] = false
	}
	return true
}

// prepareDownKernel fills one node-grain slot with the same arguments Newview
// would use, running every serially-required side effect here: transition
// lookups (cache inserts), site-repeat class maintenance (pair-table
// scratch), and the kernel statistics. Tip-table expansion is deferred to the
// parallel body, which owns the slot's private tables.
//
//cellmg:hotpath
func (e *Engine) prepareDownKernel(k *nodeKernel, n *Node) {
	e.Stats.NewviewCalls++
	left, right := n.Children[0], n.Children[1]
	a := &k.nv
	a.pl = e.transitionFlat(left.Length, 0)
	a.pr = e.transitionFlat(right.Length, 1)
	if left.IsTip() {
		a.lstates, a.ltab = e.Data.States[left.Taxon], nil
		a.lv, a.lscale = nil, nil
	} else {
		a.lstates, a.ltab = nil, nil
		a.lv = e.downVec(left.ID)
		a.lscale = e.downScaleVec(left.ID)
	}
	if right.IsTip() {
		a.rstates, a.rtab = e.Data.States[right.Taxon], nil
		a.rv, a.rscale = nil, nil
	} else {
		a.rstates, a.rtab = nil, nil
		a.rv = e.downVec(right.ID)
		a.rscale = e.downScaleVec(right.ID)
	}
	a.dst = e.downVec(n.ID)
	a.scale = e.downScaleVec(n.ID)
	a.uniq = nil
	k.node = n
	if e.repOn {
		e.maintainRepeats(n)
		cnt := int(e.repCnt[n.ID])
		if cnt < e.nPat {
			a.uniq = e.repUniq[n.ID*e.nPat : n.ID*e.nPat+cnt]
			e.Stats.RepeatsCopied += e.nPat - cnt
		}
	}
}

// waveDownBody is the node-grain loop body of the down sweep: each index is
// one whole Newview kernel. The body touches only its slot (private tip
// tables, private argument block) and the slot's destination vectors, which
// are disjoint across the level.
//
//cellmg:hotpath
func (e *Engine) waveDownBody(lo, hi int) {
	for x := lo; x < hi; x++ {
		k := &e.waveKerns[x]
		a := &k.nv
		if a.lstates != nil {
			e.fillTipTable(k.tipTab[0], a.pl)
			a.ltab = k.tipTab[0]
		}
		if a.rstates != nil {
			e.fillTipTable(k.tipTab[1], a.pr)
			a.rtab = k.tipTab[1]
		}
		if a.uniq != nil {
			e.newviewKernel(a, 0, len(a.uniq))
			e.repCopy(k.node, a)
		} else {
			e.newviewKernel(a, 0, e.nPat)
		}
	}
}

// computeOutWave is the leveled form of the outer-vector sweep: a
// breadth-first walk from the root where each frontier level's units (one per
// child edge) read only their parent's out vector — settled by the previous
// level's barrier — and sibling down vectors settled by computeDown.
//
//cellmg:hotpath-safe -- allocates only while the wavefront scratch grows; steady state guarded by alloc_test.go
func (e *Engine) computeOutWave(t *Tree) {
	var t0 flight.Time
	if e.rec != nil {
		t0 = e.rec.Now()
	}
	q := e.waveNodes[:0]
	q = append(q, t.Root)
	head := 0
	units, levels, grainLevels := 0, 0, 0
	for head < len(q) {
		levelEnd := len(q)
		levels++
		frontier := q[head:levelEnd]
		nUnits := 0
		for _, u := range frontier {
			nUnits += len(u.Children)
		}
		if nUnits >= 2 && e.nPat <= nodeGrainMaxPatterns && nUnits <= maxKernsPerDispatch {
			e.growWaveKerns(nUnits)
			x := 0
			for _, u := range frontier {
				for _, v := range u.Children {
					e.prepareOutKernel(&e.waveKerns[x].out, u, v)
					x++
					if !v.IsTip() {
						q = append(q, v)
					}
				}
			}
			e.nodePar()(nUnits, e.waveOutFn)
			grainLevels++
		} else {
			for _, u := range frontier {
				e.computeOutNode(u)
				for _, v := range u.Children {
					if !v.IsTip() {
						q = append(q, v)
					}
				}
			}
		}
		units += nUnits
		head = levelEnd
	}
	e.waveNodes = q[:0]
	if e.rec != nil {
		e.rec.Span(e.recLane, flight.KindWave, e.recFlow, t0,
			int64(units), int64(levels)<<32|int64(grainLevels))
	}
}

// prepareOutKernel fills one node-grain slot with the arguments computeOutOne
// would use for child v of u, including the epoch stamp (the stamp is
// bookkeeping about what WILL be settled once the level's barrier passes;
// nothing reads it mid-dispatch because the engine goroutine is the only
// reader and it is driving the dispatch).
//
//cellmg:hotpath
func (e *Engine) prepareOutKernel(a *computeOutArgs, u, v *Node) {
	e.setOutArgs(a, u, v)
	a.freqs = e.outA.freqs
	e.outEpoch[v.ID] = e.treeEpoch
}

// waveOutBody is the node-grain loop body of the out sweep: each index runs
// one whole outer-vector kernel against its private argument slot.
//
//cellmg:hotpath
func (e *Engine) waveOutBody(lo, hi int) {
	for x := lo; x < hi; x++ {
		e.computeOutKernel(&e.waveKerns[x].out, 0, e.nPat)
	}
}
