//cellmg:deterministic
package phylo

import (
	"fmt"
	"math"
)

// ParallelFor executes body over the index range [0, n), possibly splitting
// it into chunks that run concurrently. The body must be safe to run on
// disjoint chunks in parallel. A nil ParallelFor means serial execution.
//
// This is the hook through which the native runtime work-shares the
// per-pattern likelihood loops — the Go analogue of the paper's loop-level
// parallelism across SPEs.
type ParallelFor func(n int, body func(lo, hi int))

// serialFor is the default executor.
func serialFor(n int, body func(lo, hi int)) { body(0, n) }

// Branch length bounds and Newton-Raphson parameters for Makenewz.
const (
	MinBranchLength = 1e-6
	MaxBranchLength = 10.0
	newtonMaxIter   = 32
	newtonTolerance = 1e-8
)

// scalingThreshold triggers per-pattern rescaling of conditional likelihoods
// to avoid underflow on large trees.
const scalingThreshold = 1e-80

// tipStates is the number of distinct 4-bit observed state sets a tip can
// carry (2^NumStates); the tip lookup tables have one row per set.
const tipStates = 1 << NumStates

// KernelStats counts invocations of the three likelihood kernels — the
// functions the paper off-loads to SPEs. The native runtime and the workload
// calibration read them. RepeatsCopied counts per-pattern kernel evaluations
// the site-repeat machinery replaced with a vector copy. OutviewCalls counts
// outer-vector kernels and DerivEvals the per-edge passes over the patterns
// (edgeDerivatives and edgeLogLik) — the work inside a makenewz visit that
// the partial traversals exist to keep constant per edge.
type KernelStats struct {
	NewviewCalls  int
	EvaluateCalls int
	MakenewzCalls int
	RepeatsCopied int
	OutviewCalls  int
	DerivEvals    int
}

// Engine evaluates and optimizes the likelihood of trees over one
// pattern-compressed alignment under one substitution model.
//
// An Engine is not safe for concurrent use by multiple goroutines; the
// intended concurrency is one Engine per in-flight tree search (task-level
// parallelism) with the per-pattern loops optionally work-shared through
// ParallelFor (loop-level parallelism), mirroring the paper's two layers.
//
// The hot path is allocation-free in steady state: transition matrices are
// served from a per-engine slab-backed cache keyed by branch length (see
// transcache.go), the kernel loop bodies are persistent closures created once
// at construction, and every per-pattern buffer is engine-owned and reused.
// The whole tree search rides on the same contract (SearchInto is 0 allocs/op
// after warmup, guarded by alloc_test.go). Mutating Model or Rates in place
// requires InvalidateTransitions.
//
// Conditional-likelihood storage is structure-of-arrays: all per-node vectors
// live in four flat engine-owned blocks (node-major; within a node,
// pattern-major with the rate categories interleaved per pattern), so a
// traversal streams through contiguous memory instead of chasing per-node
// slice headers. Site-repeat compression (siterepeats.go) makes patterns with
// identical data in a node's subtree share one kernel evaluation.
//
// Likelihood evaluation is incremental (incremental.go): the engine tracks
// which conditional vectors a tree mutation staled and traversals recompute
// only those. Callers that mutate a bound tree directly must report it via
// InvalidateEdge/InvalidateNode (or fall back to Refresh/InvalidateAll);
// the optimization and search entry points do this themselves.
type Engine struct {
	Data  *PatternAlignment
	Model Model
	Rates RateCategories
	Stats KernelStats

	par    ParallelFor
	nPat   int
	nCat   int
	stride int // nCat * NumStates values per pattern
	vecLen int // nPat * stride: one conditional-likelihood vector

	// SoA conditional-likelihood storage: one flat block per vector family,
	// indexed by node ID (tipBlk by taxon index). The accessors below
	// (tipVec/downVec/outVec/...) carve full-capacity subslices, so the
	// kernels' bounds checks resolve against the per-node vector length.
	tipBlk  []float64    // nTaxa * vecLen: tip conditional likelihoods
	clvDown []float64    // nodeCap * vecLen: subtree conditionals
	sclDown []float64    // nodeCap * nPat: per-pattern log scalers
	clvOut  []float64    // nodeCap * vecLen: conditionals of everything outside the subtree
	sclOut  []float64    // nodeCap * nPat
	nodeCap int          // nodes the blocks are sized for
	siteBuf []float64    // per-pattern scratch for reductions
	tipTab  [2][]float64 // per-call tip lookup tables, nCat*tipStates*NumStates each

	// Transition cache (transcache.go).
	cacheOn      bool
	probs        map[float64][]float64
	derivs       map[float64]derivTriple
	probSlab     transSlab
	derivSlab    transSlab
	transScratch [2][]float64
	derivScratch derivTriple

	// Site-repeat compression (siterepeats.go).
	repOn      bool
	repClass   []int32  // nodeCap * nPat: per-node pattern class ids
	repSrc     []int32  // nodeCap * nPat: representative pattern per pattern
	repUniq    []int32  // nodeCap * nPat: representative list, first repCnt[id] entries
	repDup     []int32  // nodeCap * nPat: duplicate list, first nPat-repCnt[id] entries
	repCnt     []int32  // per node: number of classes
	repDirty   []bool   // class vectors possibly stale (subtree composition changed)
	repVer     []uint64 // per node: bumped whenever the node's classes are rebuilt
	repBuiltL  []int32  // child IDs the classes were built from (-1: never built)
	repBuiltR  []int32
	repBuiltLV []uint64 // child class versions the classes were built from
	repBuiltRV []uint64
	repFirst   []int32 // class -> first pattern, rebuild scratch
	pairTab    []int32 // dense (leftClass, rightClass) -> class scratch
	pairGen    []uint32
	pairCur    uint32

	// Persistent kernel loop bodies and their argument blocks. The bodies are
	// built once in NewEngine and fed engine-owned argument structs, so
	// invoking a kernel allocates nothing (a fresh closure per call would
	// escape to the heap on every traversal step).
	nvFn   func(lo, hi int)
	outFn  func(lo, hi int)
	evalFn func(lo, hi int)
	nvA    newviewArgs
	outA   computeOutArgs
	evalA  evaluateArgs

	outVisit func(n *Node) // pre-order outer-vector sweep body

	// Incremental state (incremental.go): dirty-node tracking for the down
	// vectors, epoch stamps for the out vectors, and scratch buffers for the
	// local-neighborhood traversals. All slices are indexed by Node.ID.
	lastTree  *Tree
	downDirty []bool   // down vector of n needs recomputation
	anyDirty  bool     // fast path: false means every down vector is current
	treeEpoch uint64   // bumped on every materialized change to the tree
	outEpoch  []uint64 // == treeEpoch: the out vector of n is valid for the current tree
	visitGen  uint64   // generation counter for the scratch marks below
	visitMark []uint64 // node-visited marks for collectLocalEdges
	edgeMark  []uint64 // edge-collected marks for collectLocalEdges
	pathBuf   []*Node  // root-to-edge path scratch for ensureOut
	localBuf  []*Node  // BFS frontier scratch for collectLocalEdges
	edgeBuf   []*Node  // collected local edge set (valid until the next call)

	// Search scratch (search.go): buffers reused across every sweep and
	// candidate of every search run on this engine, so SearchInto allocates
	// nothing in steady state.
	movesBuf   []NNIMove
	savedNodes []*Node
	savedLens  []float64
	valStack   []*Node
	valSeen    []uint64
	valGen     uint64

	// ckpt is the reusable sweep-boundary checkpoint handed to
	// SearchOptions.Checkpoint (checkpoint.go); its slices are refilled per
	// emission so the hot-path emission allocates nothing.
	ckpt Checkpoint
}

// NewEngine creates a likelihood engine for the alignment, model and rate
// categories. Site-repeat compression is on by default (SetSiteRepeats).
func NewEngine(data *PatternAlignment, model Model, rates RateCategories) (*Engine, error) {
	if data == nil || data.NumPatterns() == 0 {
		return nil, fmt.Errorf("phylo: engine needs a non-empty pattern alignment")
	}
	if model == nil {
		return nil, fmt.Errorf("phylo: engine needs a model")
	}
	if rates.Count() == 0 {
		rates = SingleRate()
	}
	e := &Engine{
		Data:   data,
		Model:  model,
		Rates:  rates,
		par:    serialFor,
		nPat:   data.NumPatterns(),
		nCat:   rates.Count(),
		stride: rates.Count() * NumStates,
		repOn:  true,
	}
	e.vecLen = e.nPat * e.stride
	e.buildTipVectors()
	e.initCache()
	e.tipTab[0] = make([]float64, e.nCat*tipStates*NumStates)
	e.tipTab[1] = make([]float64, e.nCat*tipStates*NumStates)
	e.nvFn = e.newviewBody
	e.outFn = e.computeOutBody
	e.evalFn = e.evaluateBody
	e.outVisit = e.computeOutNode
	return e, nil
}

// SetParallel installs a loop executor; nil restores serial execution. It is
// a plain field write: call it on the engine's goroutine before the evaluation
// or search it should apply to, never while one is running.
func (e *Engine) SetParallel(p ParallelFor) {
	if p == nil {
		p = serialFor
	}
	e.par = p
}

// NumPatterns returns the number of site patterns (the trip count of every
// parallel loop; 228 for the paper's 42_SC input).
func (e *Engine) NumPatterns() int { return e.nPat }

// tipVec returns the conditional likelihood vector of a tip.
//
//cellmg:hotpath
func (e *Engine) tipVec(taxon int) []float64 {
	o := taxon * e.vecLen
	return e.tipBlk[o : o+e.vecLen : o+e.vecLen]
}

// downVec returns the subtree conditional vector of a node.
//
//cellmg:hotpath
func (e *Engine) downVec(id int) []float64 {
	o := id * e.vecLen
	return e.clvDown[o : o+e.vecLen : o+e.vecLen]
}

// downScaleVec returns the per-pattern log scalers of a node's down vector.
//
//cellmg:hotpath
func (e *Engine) downScaleVec(id int) []float64 {
	o := id * e.nPat
	return e.sclDown[o : o+e.nPat : o+e.nPat]
}

// outVec returns the outer conditional vector of a node.
//
//cellmg:hotpath
func (e *Engine) outVec(id int) []float64 {
	o := id * e.vecLen
	return e.clvOut[o : o+e.vecLen : o+e.vecLen]
}

// outScaleVec returns the per-pattern log scalers of a node's out vector.
//
//cellmg:hotpath
func (e *Engine) outScaleVec(id int) []float64 {
	o := id * e.nPat
	return e.sclOut[o : o+e.nPat : o+e.nPat]
}

func (e *Engine) buildTipVectors() {
	e.tipBlk = make([]float64, e.Data.NumTaxa()*e.vecLen)
	for taxon := 0; taxon < e.Data.NumTaxa(); taxon++ {
		v := e.tipVec(taxon)
		for i := 0; i < e.nPat; i++ {
			bits := e.Data.States[taxon][i]
			for r := 0; r < e.nCat; r++ {
				base := i*e.stride + r*NumStates
				for s := 0; s < NumStates; s++ {
					if bits&(1<<uint(s)) != 0 {
						v[base+s] = 1
					}
				}
			}
		}
	}
}

// ensureBuffers sizes the per-node SoA blocks for the tree. Growth copies the
// existing vectors over (the layout is node-major in both blocks), so resizing
// never invalidates settled state.
func (e *Engine) ensureBuffers(t *Tree) {
	n := len(t.Nodes)
	if n <= e.nodeCap && cap(e.siteBuf) >= e.nPat {
		return
	}
	grow := func(old []float64, per int) []float64 {
		nb := make([]float64, n*per)
		copy(nb, old)
		return nb
	}
	e.clvDown = grow(e.clvDown, e.vecLen)
	e.sclDown = grow(e.sclDown, e.nPat)
	e.clvOut = grow(e.clvOut, e.vecLen)
	e.sclOut = grow(e.sclOut, e.nPat)
	growI := func(old []int32, per int) []int32 {
		nb := make([]int32, n*per)
		copy(nb, old)
		return nb
	}
	e.repClass = growI(e.repClass, e.nPat)
	e.repSrc = growI(e.repSrc, e.nPat)
	e.repUniq = growI(e.repUniq, e.nPat)
	e.repDup = growI(e.repDup, e.nPat)
	e.repCnt = append(e.repCnt, make([]int32, n-len(e.repCnt))...)
	e.repVer = append(e.repVer, make([]uint64, n-len(e.repVer))...)
	e.repBuiltLV = append(e.repBuiltLV, make([]uint64, n-len(e.repBuiltLV))...)
	e.repBuiltRV = append(e.repBuiltRV, make([]uint64, n-len(e.repBuiltRV))...)
	for len(e.repBuiltL) < n {
		e.repBuiltL = append(e.repBuiltL, -1)
		e.repBuiltR = append(e.repBuiltR, -1)
	}
	if len(e.repFirst) < e.nPat {
		e.repFirst = make([]int32, e.nPat)
	}
	e.nodeCap = n
	// Size the reduction buffer here, outside any parallel region, so no
	// work-shared chunk ever observes it growing.
	if cap(e.siteBuf) < e.nPat {
		e.siteBuf = make([]float64, e.nPat)
	}
}

// childVector returns the conditional likelihood vector and scaler slice of a
// node viewed as a child (tips read the precomputed tip vectors).
//
//cellmg:hotpath
func (e *Engine) childVector(n *Node) ([]float64, []float64) {
	if n.IsTip() {
		return e.tipVec(n.Taxon), nil
	}
	return e.downVec(n.ID), e.downScaleVec(n.ID)
}

// newviewArgs is the argument block of the Newview loop body. A side is
// either an inner child (lv/rv + lscale/rscale) or a tip child (lstates +
// ltab: the per-pattern observed state sets and the lookup table that maps a
// state set directly to the four per-state sums through the child's
// transition matrix — the RAxML tip-case specialization, which replaces four
// dot products with one table row read).
type newviewArgs struct {
	lv, rv         []float64 // inner-child conditional vectors (nil for tips)
	lstates        []uint8   // tip-child observed state sets (nil for inner children)
	rstates        []uint8
	ltab, rtab     []float64 // tip lookup tables, nCat*tipStates*NumStates
	lscale, rscale []float64 // child scaler vectors (nil for tips)
	pl, pr         []float64 // flattened transition matrices
	dst, scale     []float64 // destination vectors
	uniq           []int32   // site-repeat representative patterns (nil: all)
}

// newviewBody is the per-pattern loop of the newview() kernel: for every
// pattern and rate category it forms the fused product of the left and right
// child contributions through the flattened transition matrices. The 4-state
// inner products are fully unrolled; slices are hoisted per category so the
// innermost statements are bounds-check-free. When a side is a tip, the four
// inner products collapse to one lookup-table row read. When uniq is non-nil
// the loop runs over the site-repeat representative list instead of the full
// pattern range (Newview copies the remaining patterns afterwards).
//
//cellmg:hotpath
func (e *Engine) newviewBody(lo, hi int) {
	a := &e.nvA
	lv, rv := a.lv, a.rv
	lst, rst := a.lstates, a.rstates
	ltab, rtab := a.ltab, a.rtab
	pl, pr := a.pl, a.pr
	dst, scale := a.dst, a.scale
	lscale, rscale := a.lscale, a.rscale
	uniq := a.uniq
	nCat, stride := e.nCat, e.stride
	for j := lo; j < hi; j++ {
		i := j
		if uniq != nil {
			i = int(uniq[j])
		}
		base := i * stride
		maxV := 0.0
		for r := 0; r < nCat; r++ {
			off := base + r*NumStates
			m := r * flatMatSize
			var sl0, sl1, sl2, sl3 float64
			if lst != nil {
				o := (m + int(lst[i])) * NumStates
				lt := ltab[o : o+NumStates : o+NumStates]
				sl0, sl1, sl2, sl3 = lt[0], lt[1], lt[2], lt[3]
			} else {
				pm := pl[m : m+flatMatSize : m+flatMatSize]
				lw := lv[off : off+NumStates : off+NumStates]
				l0, l1, l2, l3 := lw[0], lw[1], lw[2], lw[3]
				sl0 = pm[0]*l0 + pm[1]*l1 + pm[2]*l2 + pm[3]*l3
				sl1 = pm[4]*l0 + pm[5]*l1 + pm[6]*l2 + pm[7]*l3
				sl2 = pm[8]*l0 + pm[9]*l1 + pm[10]*l2 + pm[11]*l3
				sl3 = pm[12]*l0 + pm[13]*l1 + pm[14]*l2 + pm[15]*l3
			}
			var sr0, sr1, sr2, sr3 float64
			if rst != nil {
				o := (m + int(rst[i])) * NumStates
				rt := rtab[o : o+NumStates : o+NumStates]
				sr0, sr1, sr2, sr3 = rt[0], rt[1], rt[2], rt[3]
			} else {
				qm := pr[m : m+flatMatSize : m+flatMatSize]
				rw := rv[off : off+NumStates : off+NumStates]
				r0, r1, r2, r3 := rw[0], rw[1], rw[2], rw[3]
				sr0 = qm[0]*r0 + qm[1]*r1 + qm[2]*r2 + qm[3]*r3
				sr1 = qm[4]*r0 + qm[5]*r1 + qm[6]*r2 + qm[7]*r3
				sr2 = qm[8]*r0 + qm[9]*r1 + qm[10]*r2 + qm[11]*r3
				sr3 = qm[12]*r0 + qm[13]*r1 + qm[14]*r2 + qm[15]*r3
			}
			d := dst[off : off+NumStates : off+NumStates]
			v0 := sl0 * sr0
			d[0] = v0
			if v0 > maxV {
				maxV = v0
			}
			v1 := sl1 * sr1
			d[1] = v1
			if v1 > maxV {
				maxV = v1
			}
			v2 := sl2 * sr2
			d[2] = v2
			if v2 > maxV {
				maxV = v2
			}
			v3 := sl3 * sr3
			d[3] = v3
			if v3 > maxV {
				maxV = v3
			}
		}
		sc := 0.0
		if lscale != nil {
			sc += lscale[i]
		}
		if rscale != nil {
			sc += rscale[i]
		}
		// Rescale to avoid underflow on deep trees.
		if maxV > 0 && maxV < scalingThreshold {
			inv := 1 / maxV
			for k := base; k < base+stride; k++ {
				dst[k] *= inv
			}
			sc += math.Log(maxV)
		}
		scale[i] = sc
	}
}

// fillTipTable expands the flattened transition matrices p into the tip
// lookup table dst: for every rate category, observed state set and target
// state s, the sum over the set's member states j of P[s][j]. Summation runs
// in ascending j, matching the term order of the inner-child dot product.
//
//cellmg:hotpath
func (e *Engine) fillTipTable(dst, p []float64) {
	nCat := e.nCat
	for r := 0; r < nCat; r++ {
		m := r * flatMatSize
		pm := p[m : m+flatMatSize : m+flatMatSize]
		for bits := 0; bits < tipStates; bits++ {
			o := (m + bits) * NumStates
			for s := 0; s < NumStates; s++ {
				k := s * NumStates
				var sum float64
				for j := 0; j < NumStates; j++ {
					if bits&(1<<uint(j)) != 0 {
						sum += pm[k+j]
					}
				}
				dst[o+s] = sum
			}
		}
	}
}

// Newview computes the conditional likelihood vector of an internal node from
// its two children — the paper's newview() kernel. The children's vectors
// must already be up to date. With site repeats on, only the representative
// pattern of each repeat class runs through the loop body; the rest are
// copied (siterepeats.go).
//
//cellmg:hotpath
func (e *Engine) Newview(n *Node) {
	if n.IsTip() {
		return
	}
	e.Stats.NewviewCalls++
	left, right := n.Children[0], n.Children[1]
	a := &e.nvA
	a.pl = e.transitionFlat(left.Length, 0)
	a.pr = e.transitionFlat(right.Length, 1)
	if left.IsTip() {
		e.fillTipTable(e.tipTab[0], a.pl)
		a.lstates, a.ltab = e.Data.States[left.Taxon], e.tipTab[0]
		a.lv, a.lscale = nil, nil
	} else {
		a.lstates, a.ltab = nil, nil
		a.lv = e.downVec(left.ID)
		a.lscale = e.downScaleVec(left.ID)
	}
	if right.IsTip() {
		e.fillTipTable(e.tipTab[1], a.pr)
		a.rstates, a.rtab = e.Data.States[right.Taxon], e.tipTab[1]
		a.rv, a.rscale = nil, nil
	} else {
		a.rstates, a.rtab = nil, nil
		a.rv = e.downVec(right.ID)
		a.rscale = e.downScaleVec(right.ID)
	}
	a.dst = e.downVec(n.ID)
	a.scale = e.downScaleVec(n.ID)
	a.uniq = nil
	if e.repOn && e.lastTree != nil {
		e.newviewRepeats(n)
		return
	}
	e.par(e.nPat, e.nvFn)
}

// computeDown settles every stale subtree conditional vector with a lazy
// post-order traversal: the dirty set (incremental.go) is upward-closed, so
// the walk descends only into dirty subtrees and clean regions cost nothing.
// After a full invalidation (bindTree, Refresh, InvalidateAll) this is the
// classic whole-tree Newview sweep.
func (e *Engine) computeDown(t *Tree) {
	e.bindTree(t)
	if !e.anyDirty {
		return
	}
	e.downWalk(t.Root)
	e.anyDirty = false
}

// computeOutArgs is the argument block of the outer-vector loop body.
type computeOutArgs struct {
	sv, sscale []float64 // sibling conditional vector and scalers
	psib       []float64 // flattened sibling transition matrices
	pup        []float64 // flattened parent transition matrices (nil at root)
	uv, uscale []float64 // parent outer vector and scalers
	dst, scale []float64
	freqs      Frequencies
}

// computeOutBody is the per-pattern loop of the outer-vector kernel.
//
//cellmg:hotpath
func (e *Engine) computeOutBody(lo, hi int) {
	a := &e.outA
	sv, psib := a.sv, a.psib
	pup, uv := a.pup, a.uv
	dst, scale := a.dst, a.scale
	sscale, uscale := a.sscale, a.uscale
	f0, f1, f2, f3 := a.freqs[0], a.freqs[1], a.freqs[2], a.freqs[3]
	nCat, stride := e.nCat, e.stride
	for i := lo; i < hi; i++ {
		base := i * stride
		maxV := 0.0
		for r := 0; r < nCat; r++ {
			off := base + r*NumStates
			m := r * flatMatSize
			sm := psib[m : m+flatMatSize : m+flatMatSize]
			s0, s1, s2, s3 := sv[off], sv[off+1], sv[off+2], sv[off+3]
			var um []float64
			var u0, u1, u2, u3 float64
			if pup != nil {
				um = pup[m : m+flatMatSize : m+flatMatSize]
				u0, u1, u2, u3 = uv[off], uv[off+1], uv[off+2], uv[off+3]
			}
			for s := 0; s < NumStates; s++ {
				k := s * NumStates
				// Contribution of the sibling subtree, seen from u.
				sibSum := sm[k]*s0 + sm[k+1]*s1 + sm[k+2]*s2 + sm[k+3]*s3
				var rest float64
				if pup == nil {
					// u is the root: the prior lives here.
					switch s {
					case 0:
						rest = f0
					case 1:
						rest = f1
					case 2:
						rest = f2
					default:
						rest = f3
					}
				} else {
					// Everything outside u's subtree, folded from the
					// grandparent down to u (column s of the parent matrix).
					rest = u0*um[s] + u1*um[NumStates+s] + u2*um[2*NumStates+s] + u3*um[3*NumStates+s]
				}
				v := sibSum * rest
				dst[off+s] = v
				if v > maxV {
					maxV = v
				}
			}
		}
		sc := 0.0
		if sscale != nil {
			sc += sscale[i]
		}
		if uscale != nil {
			sc += uscale[i]
		}
		if maxV > 0 && maxV < scalingThreshold {
			inv := 1 / maxV
			for k := base; k < base+stride; k++ {
				dst[k] *= inv
			}
			sc += math.Log(maxV)
		}
		scale[i] = sc
	}
}

// computeOutNode refreshes the outer vectors of u's children.
//
//cellmg:hotpath
func (e *Engine) computeOutNode(u *Node) {
	for _, v := range u.Children {
		e.computeOutOne(u, v)
	}
}

// computeOut refreshes, for every non-root node, the conditional likelihood
// of all data outside its subtree (given the state at its parent), with a
// pre-order traversal, stamping every node with the current tree epoch.
// computeDown must have run first. Branch optimization does not call this:
// it repairs only the root-to-edge path it needs through ensureOut
// (incremental.go).
//
//cellmg:hotpath
func (e *Engine) computeOut(t *Tree) {
	e.outA.freqs = e.Model.Frequencies()
	PreOrder(t.Root, e.outVisit)
}

// Refresh recomputes every inner (down) and outer (out) conditional vector of
// the tree from scratch — the full-recompute fallback of the incremental
// machinery. It is always safe regardless of what mutations the tree has seen;
// calibration and benchmarks use it to put the engine in the state Makenewz
// expects.
func (e *Engine) Refresh(t *Tree) {
	e.bindTree(t)
	e.markAllDirty()
	e.computeDown(t)
	e.computeOut(t)
}

// evaluateArgs is the argument block of the root-evaluation loop body.
type evaluateArgs struct {
	rootVec   []float64
	rootScale []float64
	site      []float64
	freqs     Frequencies
	catWeight float64
}

// evaluateBody is the per-pattern loop of the evaluate() kernel.
//
//cellmg:hotpath
func (e *Engine) evaluateBody(lo, hi int) {
	a := &e.evalA
	rootVec, rootScale := a.rootVec, a.rootScale
	site, weights := a.site, e.Data.Weights
	f0, f1, f2, f3 := a.freqs[0], a.freqs[1], a.freqs[2], a.freqs[3]
	catWeight := a.catWeight
	nCat, stride := e.nCat, e.stride
	for i := lo; i < hi; i++ {
		base := i * stride
		var siteL float64
		for r := 0; r < nCat; r++ {
			off := base + r*NumStates
			siteL += f0*rootVec[off] + f1*rootVec[off+1] + f2*rootVec[off+2] + f3*rootVec[off+3]
		}
		siteL *= catWeight
		if siteL <= 0 {
			siteL = math.SmallestNonzeroFloat64
		}
		site[i] = weights[i] * (math.Log(siteL) + rootScale[i])
	}
}

// Evaluate computes the log-likelihood of the tree at the root — the paper's
// evaluate() kernel. computeDown must have run first.
//
//cellmg:hotpath
func (e *Engine) evaluateAtRoot(t *Tree) float64 {
	e.Stats.EvaluateCalls++
	root := t.Root
	a := &e.evalA
	a.rootVec = e.downVec(root.ID)
	a.rootScale = e.downScaleVec(root.ID)
	a.freqs = e.Model.Frequencies()
	a.catWeight = 1.0 / float64(e.nCat)

	// Per-pattern contributions are written to disjoint slots of the
	// pre-sized buffer (ensureBuffers), so the loop is safe under any
	// ParallelFor executor; the final reduction is serial, mirroring the
	// master-side reduction of the paper's work-sharing scheme.
	a.site = e.siteBuf[:e.nPat]
	e.par(e.nPat, e.evalFn)
	var sum float64
	for _, v := range a.site {
		sum += v
	}
	return sum
}

// EvaluateRoot exposes the evaluate() kernel on its own: it computes the
// log-likelihood from the current root conditional vector without refreshing
// anything. Refresh or LogLikelihood must have run on t first; calibration
// uses it to time the kernel in isolation.
func (e *Engine) EvaluateRoot(t *Tree) float64 {
	e.ensureBuffers(t)
	return e.evaluateAtRoot(t)
}

// LogLikelihood returns the log-likelihood of the tree, recomputing only the
// conditional vectors invalidated since the last evaluation (all of them the
// first time the engine sees t). Callers that mutated the tree directly must
// have invalidated the affected edges (see incremental.go); Refresh is the
// always-safe full recompute.
func (e *Engine) LogLikelihood(t *Tree) float64 {
	e.computeDown(t)
	return e.evaluateAtRoot(t)
}

// edgeDerivatives returns the first and second derivatives of the
// log-likelihood with respect to the length of the edge above node v, using
// the current down/out vectors, and with wantLL the log-likelihood itself —
// one math.Log per pattern, which only Newton iterate 0 has a use for (ll is
// 0 without it; the derivative sums do not read it).
//
//cellmg:hotpath
func (e *Engine) edgeDerivatives(v *Node, b float64, wantLL bool) (ll, d1, d2 float64) {
	e.Stats.DerivEvals++
	dv, dscale := e.childVector(v)
	ov := e.outVec(v.ID)
	oscale := e.outScaleVec(v.ID)
	weights := e.Data.Weights
	catWeight := 1.0 / float64(e.nCat)
	d := e.transitionDerivFlat(b)
	nCat, stride := e.nCat, e.stride

	for i := 0; i < e.nPat; i++ {
		base := i * stride
		var l0, l1, l2 float64
		for r := 0; r < nCat; r++ {
			off := base + r*NumStates
			m := r * flatMatSize
			pm := d.p[m : m+flatMatSize : m+flatMatSize]
			dm := d.dp[m : m+flatMatSize : m+flatMatSize]
			d2m := d.d2p[m : m+flatMatSize : m+flatMatSize]
			v0, v1, v2, v3 := dv[off], dv[off+1], dv[off+2], dv[off+3]
			for s := 0; s < NumStates; s++ {
				os := ov[off+s]
				if os == 0 {
					continue
				}
				k := s * NumStates
				s0 := pm[k]*v0 + pm[k+1]*v1 + pm[k+2]*v2 + pm[k+3]*v3
				s1 := dm[k]*v0 + dm[k+1]*v1 + dm[k+2]*v2 + dm[k+3]*v3
				s2 := d2m[k]*v0 + d2m[k+1]*v1 + d2m[k+2]*v2 + d2m[k+3]*v3
				l0 += os * s0
				l1 += os * s1
				l2 += os * s2
			}
		}
		l0 *= catWeight
		l1 *= catWeight
		l2 *= catWeight
		if l0 <= 0 {
			l0 = math.SmallestNonzeroFloat64
		}
		w := weights[i]
		if wantLL {
			sc := 0.0
			if dscale != nil {
				sc += dscale[i]
			}
			sc += oscale[i]
			ll += w * (math.Log(l0) + sc)
		}
		d1 += w * (l1 / l0)
		d2 += w * ((l2*l0 - l1*l1) / (l0 * l0))
	}
	return ll, d1, d2
}

// edgeLogLik returns the log-likelihood of the tree with the edge above v set
// to length b — edgeDerivatives' first result, bit for bit, at a third of the
// mat-vec work: it performs the same per-pattern operations in the same order
// on the same transitionDerivFlat(b).p and simply leaves the two derivative
// sums out.
//
//cellmg:hotpath
func (e *Engine) edgeLogLik(v *Node, b float64) float64 {
	e.Stats.DerivEvals++
	dv, dscale := e.childVector(v)
	ov := e.outVec(v.ID)
	oscale := e.outScaleVec(v.ID)
	weights := e.Data.Weights
	catWeight := 1.0 / float64(e.nCat)
	p := e.transitionDerivFlat(b).p
	nCat, stride := e.nCat, e.stride

	var ll float64
	for i := 0; i < e.nPat; i++ {
		base := i * stride
		var l0 float64
		for r := 0; r < nCat; r++ {
			off := base + r*NumStates
			m := r * flatMatSize
			pm := p[m : m+flatMatSize : m+flatMatSize]
			v0, v1, v2, v3 := dv[off], dv[off+1], dv[off+2], dv[off+3]
			for s := 0; s < NumStates; s++ {
				os := ov[off+s]
				if os == 0 {
					continue
				}
				k := s * NumStates
				s0 := pm[k]*v0 + pm[k+1]*v1 + pm[k+2]*v2 + pm[k+3]*v3
				l0 += os * s0
			}
		}
		l0 *= catWeight
		if l0 <= 0 {
			l0 = math.SmallestNonzeroFloat64
		}
		sc := 0.0
		if dscale != nil {
			sc += dscale[i]
		}
		sc += oscale[i]
		ll += weights[i] * (math.Log(l0) + sc)
	}
	return ll
}

// Makenewz optimizes the length of the edge above node v with Newton-Raphson
// iterations — the paper's makenewz() kernel. It requires up-to-date down and
// out vectors (OptimizeAllBranches and OptimizeBranch arrange that) and
// returns the optimized length together with the log-likelihood at iterate 0,
// which the first derivative pass computes anyway: that is the likelihood at
// v.Length itself unless v.Length lies below MinBranchLength and was clamped.
//
//cellmg:hotpath
func (e *Engine) makenewz(v *Node) (b, ll0 float64) {
	e.Stats.MakenewzCalls++
	b = v.Length
	if b < MinBranchLength {
		b = MinBranchLength
	}
	for iter := 0; iter < newtonMaxIter; iter++ {
		ll, d1, d2 := e.edgeDerivatives(v, b, iter == 0)
		if iter == 0 {
			ll0 = ll
		}
		var step float64
		if d2 < 0 {
			step = -d1 / d2
		} else {
			// Not locally concave: take a damped gradient step.
			step = math.Copysign(math.Min(0.1, math.Abs(d1)*1e-3), d1)
		}
		nb := b + step
		if nb < MinBranchLength {
			nb = MinBranchLength
		}
		if nb > MaxBranchLength {
			nb = MaxBranchLength
		}
		if math.Abs(nb-b) < newtonTolerance {
			b = nb
			break
		}
		b = nb
	}
	return b, ll0
}

// MakenewzEdge exposes the makenewz() kernel on its own: it Newton-optimizes
// the edge above v against the current down/out vectors and returns the
// optimized length without mutating the tree. Refresh must have run first;
// calibration uses it to time the kernel in isolation.
func (e *Engine) MakenewzEdge(v *Node) float64 {
	nb, _ := e.makenewz(v)
	return nb
}

// optimizeEdge settles the conditional vectors the edge above v depends on
// (a partial traversal: only the stale part of the root-to-v out path and the
// down vectors it reads are recomputed) and Newton-optimizes its length,
// keeping the new length only if it genuinely improves the likelihood (which,
// with settled vectors, makes every accepted update monotone). An accepted
// change invalidates what reads the length so later traversals see it. It
// reports whether the length changed materially.
func (e *Engine) optimizeEdge(t *Tree, v *Node) bool {
	e.ensureOut(t, v)
	old := v.Length
	nb, before := e.makenewz(v)
	if old < MinBranchLength {
		// Newton started from the clamped length, not from old.
		before = e.edgeLogLik(v, old)
	}
	after := e.edgeLogLik(v, nb)
	if after <= before {
		return false
	}
	v.Length = nb
	e.InvalidateEdge(v)
	return math.Abs(nb-old) > 1e-7
}

// OptimizeBranch optimizes a single branch length in the context of the
// current tree and returns the new log-likelihood.
func (e *Engine) OptimizeBranch(t *Tree, v *Node) float64 {
	if v.Parent == nil {
		return e.LogLikelihood(t)
	}
	e.optimizeEdge(t, v)
	return e.LogLikelihood(t)
}

// OptimizeAllBranches performs the given number of smoothing rounds: each
// round Newton-optimizes every branch once, settling the conditional vectors
// each edge depends on (a partial traversal, not a full refresh) so that
// every accepted update improves the likelihood. It returns the final
// log-likelihood. OptimizeLocal is the constant-size-neighborhood variant
// the tree search uses per NNI candidate.
func (e *Engine) OptimizeAllBranches(t *Tree, rounds int) float64 {
	ll, _ := e.optimizeAllBranches(t, rounds)
	return ll
}

// optimizeAllBranches additionally reports whether the smoothing converged
// (a full round changed no length materially) rather than stopping at the
// rounds cap while still improving — the search uses this to decide whether
// a final smoothing pass would repeat work or continue it. The edge sweep
// iterates t.Nodes directly (the same order Tree.Edges returns) so a
// smoothing round allocates nothing.
func (e *Engine) optimizeAllBranches(t *Tree, rounds int) (float64, bool) {
	if rounds <= 0 {
		rounds = 1
	}
	converged := false
	for round := 0; round < rounds; round++ {
		changed := false
		for _, v := range t.Nodes {
			if v.Parent == nil {
				continue
			}
			if e.optimizeEdge(t, v) {
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	return e.LogLikelihood(t), converged
}
