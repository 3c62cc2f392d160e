package phylo

import (
	"fmt"
	"math"
	"math/bits"
)

// ParallelFor executes body over the index range [0, n), possibly splitting
// it into chunks that run concurrently. The body must be safe to run on
// disjoint chunks in parallel. A nil ParallelFor means serial execution.
//
// This is the hook through which the native runtime work-shares the
// per-pattern likelihood loops — the Go analogue of the paper's loop-level
// parallelism across SPEs.
type ParallelFor func(n int, body func(lo, hi int))

// loopCrossover is the loop size, in conditional-likelihood values (trips ×
// categories × states), from which a per-pattern loop is offered to the
// engine's ParallelFor; a shorter one runs in place and the executor never
// hears of it. It is read off the recorded curve (README, "Loop crossover";
// go test -bench LoopCrossover ./internal/native): the dearest loop per value,
// newview, split in two beats its serial self from between 1,024 and 2,048
// values, the cheapest, a Newton pass, draws at 2,048 and wins at 4,096 — this
// is the size from which none of them loses. A Gamma4 alignment reaches it at
// 128 patterns, a single-rate one at 512.
const loopCrossover = 2048

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
// calibration read them. NewviewCalls counts the newview calls that settle a
// down vector and OutviewCalls those that settle an out vector (same kernel,
// counted apart because the partial traversals bound them separately);
// DerivEvals counts the passes over the sum table inside a makenewz visit: the
// Newton passes and, when Newton moved the length, the acceptance pass.
type KernelStats struct {
	NewviewCalls  int
	EvaluateCalls int
	MakenewzCalls int
	// Always zero; retained for bench/, goes when it next revises its metric list.
	RepeatsCopied int
	OutviewCalls  int
	DerivEvals    int
}

// Engine evaluates and optimizes the likelihood of trees over one
// pattern-compressed alignment under one substitution model.
//
// An Engine is not safe for concurrent use by multiple goroutines; the
// intended concurrency is one Engine per in-flight tree search (task-level
// parallelism) with the per-pattern loops work-shared through ParallelFor
// (loop-level parallelism), mirroring the paper's two layers. All five loops
// are offered — newview for down and for out vectors, evaluate, the Newton
// passes (the first one building the sum table) and the acceptance pass —
// each when it is at least loopCrossover values long; sums over patterns are
// always taken in ascending pattern order (see newtonBody1), which is why no
// partition can change a bit.
//
// The hot path is allocation-free in steady state: each node's transition
// matrices live in the node's slot of a flat block, refilled only when the
// node's branch length changed (transCache), branch-length optimization reads
// none (one eigenbasis sum table per edge visit, see sumTableBody1), the
// kernel loop bodies are persistent closures created once at construction,
// and every per-pattern buffer is engine-owned and reused.
// The whole tree search rides on the same contract (SearchInto is 0 allocs/op
// after warmup, guarded by alloc_test.go). Model and Rates are read at
// construction and must not be mutated afterwards.
//
// Conditional-likelihood storage is structure-of-arrays: all per-node vectors
// live in four flat engine-owned blocks (node-major; within a node,
// pattern-major with the rate categories interleaved per pattern), so a
// traversal streams through contiguous memory instead of chasing per-node
// slice headers. Every per-node block is sized once, in NewEngine, for the
// 2·NumTaxa − 1 nodes of a binary tree over the alignment, or for its inner
// nodes where tips have no row; bindTree refuses a tree of any other node
// count.
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

	par    ParallelFor // nil: every loop runs in place
	offer  int         // loops of at least this many values go to par: loopCrossover (tests lower it)
	nTaxa  int         // taxa: tips hold IDs [0, nTaxa), inner nodes [nTaxa, 2·nTaxa−1)
	nPat   int
	nCat   int
	stride int // nCat * NumStates values per pattern
	vecLen int // nPat * stride: one conditional-likelihood vector

	// SoA conditional-likelihood storage: one flat block per vector family.
	// The accessors below (downVec/outVec/...) carve full-capacity subslices,
	// so the kernels' bounds checks resolve against the per-node vector
	// length. Tips have no down vectors: every kernel reads a tip's observed
	// state sets through a lookup table (tipTab, tipInv), so the down blocks
	// hold inner nodes only, row ID − nTaxa. Out blocks hold every node.
	clvDown []float64    // inner * vecLen: subtree conditionals
	sclDown []float64    // inner * nPat: per-pattern log scalers
	clvOut  []float64    // nodes * vecLen: conditionals of everything outside the subtree
	sclOut  []float64    // nodes * nPat
	siteBuf []float64    // per-pattern scratch for evaluate's reduction
	termBuf []float64    // 2*nPat: the terms of a split pass over the sum table, two per pattern (sums)
	tipTab  [2][]float64 // per-call tip lookup tables, nCat*tipStates*NumStates each

	trans      transCache // P(b·rate) per node (transcache.go)
	transT     []float64  // the parent edge's matrices transposed, nCat*flatMatSize (computeOutOne)
	rootStates []uint8    // nPat zeros: every pattern reads row 0 of the root-prior table

	// Spectral constants of Model × Rates (initSpectrum) and the per-edge sum
	// table the Newton iterates of Makenewz run against (sumTableBody1, sumTableBody4).
	specV    Matrix                         // V[state][k]
	specInv  Matrix                         // V⁻¹[k][state]
	tipInv   [tipStates * NumStates]float64 // per observed state set: Σ_{t in set} V⁻¹[k][t]
	lamRate  []float64                      // stride: eigen[k]·rate[r]
	expTab   []float64                      // nCat*expRow: the diagonals of the current pass (fillExpTab, acceptPass)
	sumTab   []float64                      // vecLen: A[i,r,k]
	sumScale []float64                      // nPat: down + out log scalers of the edge
	sumNode  *Node                          // the edge whose sum table the passes build and read

	// Persistent kernel loop bodies and their argument blocks. The bodies are
	// built once in NewEngine and fed engine-owned argument structs, so
	// invoking a kernel allocates nothing (a fresh closure per call would
	// escape to the heap on every traversal step).
	nvFn    func(lo, hi int)
	evalFn  func(lo, hi int)
	sumFn   func(lo, hi int)
	ntFn    func(lo, hi int)
	firstFn func(lo, hi int) // sumFn then ntFn over one share: makenewz's first pass
	accFn   func(lo, hi int)
	nvA     newviewArgs
	evalA   evaluateArgs
	ntA     newtonArgs

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
	valSeen    []bool

	// ckpt is the reusable sweep-boundary checkpoint handed to
	// SearchOptions.Checkpoint (checkpoint.go); its slices are refilled per
	// emission so the hot-path emission allocates nothing.
	ckpt Checkpoint

	// Stats is bumped on every kernel call; it sits at the far end from the
	// sizes and vector headers above, which the shares of a split loop read on
	// other cores and must not find invalidated by a counter.
	Stats KernelStats
}

// NewEngine creates a likelihood engine for the alignment, model and rate
// categories: one (SingleRate, or an empty RateCategories) or four
// (DiscreteGamma(…, 4)), the counts its loop bodies are written for.
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
	if n := rates.Count(); n != 1 && n != 4 {
		return nil, fmt.Errorf("phylo: engine has kernels for 1 or 4 rate categories, not %d", n)
	}
	e := &Engine{
		Data:   data,
		Model:  model,
		Rates:  rates,
		offer:  loopCrossover,
		nTaxa:  data.NumTaxa(),
		nPat:   data.NumPatterns(),
		nCat:   rates.Count(),
		stride: rates.Count() * NumStates,
	}
	e.vecLen = e.nPat * e.stride
	// A valid tree over the alignment (Tree.validate: binary, every taxon once,
	// tips numbered first, all reachable) has exactly this many nodes, so every
	// per-node block is sized here, once, outside any parallel region.
	nodes, inner := 2*e.nTaxa-1, e.nTaxa-1
	e.clvDown = make([]float64, inner*e.vecLen)
	e.sclDown = make([]float64, inner*e.nPat)
	e.clvOut = make([]float64, nodes*e.vecLen)
	e.sclOut = make([]float64, nodes*e.nPat)
	e.siteBuf = make([]float64, e.nPat)
	e.termBuf = make([]float64, 2*e.nPat)
	e.sumTab = make([]float64, e.vecLen)
	e.sumScale = make([]float64, e.nPat)
	e.trans = newTransCache(model, rates.Rates, nodes)
	e.transT = make([]float64, e.nCat*flatMatSize)
	e.rootStates = make([]uint8, e.nPat)
	e.initSpectrum()
	e.tipTab[0] = make([]float64, e.nCat*tipStates*NumStates)
	e.tipTab[1] = make([]float64, e.nCat*tipStates*NumStates)
	e.downDirty = make([]bool, nodes)
	e.outEpoch = make([]uint64, nodes)
	e.visitMark = make([]uint64, nodes)
	e.edgeMark = make([]uint64, nodes)
	e.evalFn = e.evaluateBody
	switch e.nCat { // the category counts production builds (SingleRate, DiscreteGamma(…, 4))
	case 1:
		e.nvFn, e.sumFn, e.ntFn, e.accFn = e.newviewBody1, e.sumTableBody1, e.newtonBody1, e.acceptBody1
	case 4:
		e.nvFn, e.sumFn, e.ntFn, e.accFn = e.newviewBody4, e.sumTableBody4, e.newtonBody4, e.acceptBody4
	}
	e.firstFn = func(lo, hi int) { e.sumFn(lo, hi); e.ntFn(lo, hi) }
	return e, nil
}

// SetParallel installs a loop executor; nil restores serial execution. It is
// a plain field write: call it on the engine's goroutine before the evaluation
// or search it should apply to, never while one is running.
func (e *Engine) SetParallel(p ParallelFor) { e.par = p }

// loop runs one per-pattern loop of n trips: through the executor when there
// is one and the loop is long enough to split (loopCrossover), in place
// otherwise. Every body writes only its own patterns' slots, so how the
// executor cuts [0, n) cannot change a bit of any result.
func (e *Engine) loop(n int, body func(lo, hi int)) {
	if e.par == nil || n*e.stride < e.offer {
		body(0, n)
		return
	}
	e.par(n, body)
}

// NumPatterns returns the number of site patterns (the trip count of every
// parallel loop; 228 for the paper's 42_SC input).
func (e *Engine) NumPatterns() int { return e.nPat }

// downVec returns the subtree conditional vector of an inner node.
func (e *Engine) downVec(id int) []float64 {
	o := (id - e.nTaxa) * e.vecLen
	return e.clvDown[o : o+e.vecLen : o+e.vecLen]
}

// downScaleVec returns the per-pattern log scalers of an inner node's down
// vector.
func (e *Engine) downScaleVec(id int) []float64 {
	o := (id - e.nTaxa) * e.nPat
	return e.sclDown[o : o+e.nPat : o+e.nPat]
}

// outVec returns the outer conditional vector of a node.
func (e *Engine) outVec(id int) []float64 {
	o := id * e.vecLen
	return e.clvOut[o : o+e.vecLen : o+e.vecLen]
}

// outScaleVec returns the per-pattern log scalers of a node's out vector.
func (e *Engine) outScaleVec(id int) []float64 {
	o := id * e.nPat
	return e.sclOut[o : o+e.nPat : o+e.nPat]
}

// kernelSide is one of the two factors the vector kernel multiplies per
// pattern, category and state s. An inner side is Σ_j p[s][j]·v[j]: a
// conditional vector seen through flattened per-category matrices. A table
// side is one row of tab chosen by the pattern's entry in states — a tip
// child, whose four sums depend only on its observed state set (the RAxML
// tip-case specialization: one row read instead of four dot products), or
// the root prior, the same row for every pattern.
type kernelSide struct {
	v, scale []float64 // conditional vector and its log scalers (nil for a table side)
	p        []float64 // flattened matrices, nCat*flatMatSize
	states   []uint8   // per-pattern row index (nil for an inner side)
	tab      []float64 // lookup table, nCat*tipStates*NumStates
}

// newviewArgs is the argument block of the vector kernel's loop body.
type newviewArgs struct {
	l, r       kernelSide
	dst, scale []float64 // destination vectors
}

// rescale is the rescale against underflow of a pattern none of whose stored
// values w reached scalingThreshold: it divides w by its maximum (v > maxV from
// 0, in storage order, so NaN and negatives never win) when that is positive,
// and returns the pattern's log scaler sc plus the maximum's logarithm.
func rescale(w []float64, sc float64) float64 {
	maxV := 0.0
	for _, v := range w {
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 0 {
		inv := 1 / maxV
		for k := range w {
			w[k] *= inv
		}
		sc += ln(maxV)
	}
	return sc
}

// newviewBody4 is newviewBody1 for four rate categories. It picks a loop once
// per call by the kinds of its two sides: newviewTable4 for a table side and an
// inner one, in either order (a product x·y is y·x bit for bit), newviewInner4
// for two inner sides, and newviewTips4 for two table sides (a cherry, or a tip
// beside the root under the prior), which multiply no matrix.
func (e *Engine) newviewBody4(lo, hi int) {
	a := &e.nvA
	switch {
	case a.l.states == nil && a.r.states == nil:
		e.newviewInner4(lo, hi)
	case a.r.states == nil:
		e.newviewTable4(&a.l, &a.r, lo, hi)
	case a.l.states == nil:
		e.newviewTable4(&a.r, &a.l, lo, hi)
	default:
		e.newviewTips4(lo, hi)
	}
}

// newviewTable4 is newviewBody4's loop for the table side t and the inner side
// in: the category count and the stride are constants, and every matrix, table
// row and vector is a three-index slice of the side's own storage. The sums,
// the threshold test and the rescale are newviewBody1's, term for term, per
// category. Only the inner side has log scalers; the sum starts at 0 as
// newviewBody1's does.
func (e *Engine) newviewTable4(t, in *kernelSide, lo, hi int) {
	a := &e.nvA
	st, tab := t.states, t.tab[:4*tipStates*NumStates:4*tipStates*NumStates]
	v, p, vscale := in.v, in.p[:4*flatMatSize:4*flatMatSize], in.scale
	dst, scale := a.dst, a.scale
	for i := lo; i < hi; i++ {
		base := i * 16
		w, d := v[base:base+16:base+16], dst[base:base+16:base+16]
		o := int(st[i]&(tipStates-1)) * NumStates
		big := false
		for r := 0; r < 4; r++ {
			pm := p[r*flatMatSize : r*flatMatSize+16 : r*flatMatSize+16]
			x := w[r*NumStates : r*NumStates+4 : r*NumStates+4]
			q := r*tipStates*NumStates + o
			tr := tab[q : q+4 : q+4]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			s0 := float64(pm[0]*x0) + float64(pm[1]*x1) + float64(pm[2]*x2) + float64(pm[3]*x3)
			s1 := float64(pm[4]*x0) + float64(pm[5]*x1) + float64(pm[6]*x2) + float64(pm[7]*x3)
			s2 := float64(pm[8]*x0) + float64(pm[9]*x1) + float64(pm[10]*x2) + float64(pm[11]*x3)
			s3 := float64(pm[12]*x0) + float64(pm[13]*x1) + float64(pm[14]*x2) + float64(pm[15]*x3)
			v0, v1, v2, v3 := tr[0]*s0, tr[1]*s1, tr[2]*s2, tr[3]*s3
			dr := d[r*NumStates : r*NumStates+4 : r*NumStates+4]
			dr[0], dr[1], dr[2], dr[3] = v0, v1, v2, v3
			big = big || v0 >= scalingThreshold || v1 >= scalingThreshold || v2 >= scalingThreshold || v3 >= scalingThreshold
		}
		sc := 0 + vscale[i]
		if !big {
			sc = rescale(d, sc)
		}
		scale[i] = sc
	}
}

// newviewInner4 is newviewBody4's loop for two inner sides, written as
// newviewTable4; the log scaler adds the left side's, then the right's.
func (e *Engine) newviewInner4(lo, hi int) {
	a := &e.nvA
	lv, pl, lscale := a.l.v, a.l.p[:4*flatMatSize:4*flatMatSize], a.l.scale
	rv, pr, rscale := a.r.v, a.r.p[:4*flatMatSize:4*flatMatSize], a.r.scale
	dst, scale := a.dst, a.scale
	for i := lo; i < hi; i++ {
		base := i * 16
		lw, rw, d := lv[base:base+16:base+16], rv[base:base+16:base+16], dst[base:base+16:base+16]
		big := false
		for r := 0; r < 4; r++ {
			pm := pl[r*flatMatSize : r*flatMatSize+16 : r*flatMatSize+16]
			qm := pr[r*flatMatSize : r*flatMatSize+16 : r*flatMatSize+16]
			x := lw[r*NumStates : r*NumStates+4 : r*NumStates+4]
			y := rw[r*NumStates : r*NumStates+4 : r*NumStates+4]
			l0, l1, l2, l3 := x[0], x[1], x[2], x[3]
			sl0 := float64(pm[0]*l0) + float64(pm[1]*l1) + float64(pm[2]*l2) + float64(pm[3]*l3)
			sl1 := float64(pm[4]*l0) + float64(pm[5]*l1) + float64(pm[6]*l2) + float64(pm[7]*l3)
			sl2 := float64(pm[8]*l0) + float64(pm[9]*l1) + float64(pm[10]*l2) + float64(pm[11]*l3)
			sl3 := float64(pm[12]*l0) + float64(pm[13]*l1) + float64(pm[14]*l2) + float64(pm[15]*l3)
			r0, r1, r2, r3 := y[0], y[1], y[2], y[3]
			sr0 := float64(qm[0]*r0) + float64(qm[1]*r1) + float64(qm[2]*r2) + float64(qm[3]*r3)
			sr1 := float64(qm[4]*r0) + float64(qm[5]*r1) + float64(qm[6]*r2) + float64(qm[7]*r3)
			sr2 := float64(qm[8]*r0) + float64(qm[9]*r1) + float64(qm[10]*r2) + float64(qm[11]*r3)
			sr3 := float64(qm[12]*r0) + float64(qm[13]*r1) + float64(qm[14]*r2) + float64(qm[15]*r3)
			v0, v1, v2, v3 := sl0*sr0, sl1*sr1, sl2*sr2, sl3*sr3
			dr := d[r*NumStates : r*NumStates+4 : r*NumStates+4]
			dr[0], dr[1], dr[2], dr[3] = v0, v1, v2, v3
			big = big || v0 >= scalingThreshold || v1 >= scalingThreshold || v2 >= scalingThreshold || v3 >= scalingThreshold
		}
		sc := 0 + lscale[i] + rscale[i]
		if !big {
			sc = rescale(d, sc)
		}
		scale[i] = sc
	}
}

// newviewBody1 is the per-pattern loop of the newview() kernel for one rate
// category (newviewBody4 for four), the loop every conditional vector comes
// out of: for every pattern it multiplies the left and right sides state by
// state and rescales the pattern when none of its values reaches
// scalingThreshold (rescale). Newview feeds it a node's two children;
// computeOutOne feeds it the sibling subtree and the rest of the tree. Each
// side's matrix or tip table is copied once per call into a fixed-size array;
// the 4-state inner products are unrolled, each product rounded before it is
// added.
func (e *Engine) newviewBody1(lo, hi int) {
	a := &e.nvA
	var pl, pr [flatMatSize]float64
	var tl, tr [tipStates * NumStates]float64
	lv, rv, lst, rst := a.l.v, a.r.v, a.l.states, a.r.states
	if lst != nil {
		tl = [tipStates * NumStates]float64(a.l.tab)
	} else {
		pl = [flatMatSize]float64(a.l.p)
	}
	if rst != nil {
		tr = [tipStates * NumStates]float64(a.r.tab)
	} else {
		pr = [flatMatSize]float64(a.r.p)
	}
	dst, scale, lscale, rscale := a.dst, a.scale, a.l.scale, a.r.scale
	for i := lo; i < hi; i++ {
		off := i * NumStates
		var sl0, sl1, sl2, sl3 float64
		if lst != nil {
			o := int(lst[i]&(tipStates-1)) * NumStates
			sl0, sl1, sl2, sl3 = tl[o], tl[o+1], tl[o+2], tl[o+3]
		} else {
			lw := lv[off : off+NumStates : off+NumStates]
			l0, l1, l2, l3 := lw[0], lw[1], lw[2], lw[3]
			sl0 = float64(pl[0]*l0) + float64(pl[1]*l1) + float64(pl[2]*l2) + float64(pl[3]*l3)
			sl1 = float64(pl[4]*l0) + float64(pl[5]*l1) + float64(pl[6]*l2) + float64(pl[7]*l3)
			sl2 = float64(pl[8]*l0) + float64(pl[9]*l1) + float64(pl[10]*l2) + float64(pl[11]*l3)
			sl3 = float64(pl[12]*l0) + float64(pl[13]*l1) + float64(pl[14]*l2) + float64(pl[15]*l3)
		}
		var sr0, sr1, sr2, sr3 float64
		if rst != nil {
			o := int(rst[i]&(tipStates-1)) * NumStates
			sr0, sr1, sr2, sr3 = tr[o], tr[o+1], tr[o+2], tr[o+3]
		} else {
			rw := rv[off : off+NumStates : off+NumStates]
			r0, r1, r2, r3 := rw[0], rw[1], rw[2], rw[3]
			sr0 = float64(pr[0]*r0) + float64(pr[1]*r1) + float64(pr[2]*r2) + float64(pr[3]*r3)
			sr1 = float64(pr[4]*r0) + float64(pr[5]*r1) + float64(pr[6]*r2) + float64(pr[7]*r3)
			sr2 = float64(pr[8]*r0) + float64(pr[9]*r1) + float64(pr[10]*r2) + float64(pr[11]*r3)
			sr3 = float64(pr[12]*r0) + float64(pr[13]*r1) + float64(pr[14]*r2) + float64(pr[15]*r3)
		}
		v0, v1, v2, v3 := sl0*sr0, sl1*sr1, sl2*sr2, sl3*sr3
		sc := 0.0
		if lscale != nil {
			sc += lscale[i]
		}
		if rscale != nil {
			sc += rscale[i]
		}
		d := dst[off : off+NumStates : off+NumStates]
		d[0], d[1], d[2], d[3] = v0, v1, v2, v3
		if !(v0 >= scalingThreshold || v1 >= scalingThreshold || v2 >= scalingThreshold || v3 >= scalingThreshold) {
			sc = rescale(d, sc)
		}
		scale[i] = sc
	}
}

// fillTipTable expands the flattened transition matrices p into the tip
// lookup table dst: for every rate category, observed state set and target
// state s, the sum over the set's member states j of P[s][j]. Summation runs
// in ascending j, matching the term order of the inner-child dot product: a
// set's row is the row of the set without its highest member j, plus P[s][j].
func (e *Engine) fillTipTable(dst, p []float64) {
	for r := 0; r < e.nCat; r++ {
		m := r * flatMatSize
		pm := p[m : m+flatMatSize : m+flatMatSize]
		tab := dst[m*NumStates : (m+tipStates)*NumStates : (m+tipStates)*NumStates]
		clear(tab[:NumStates])
		for set := 1; set < tipStates; set++ {
			j := bits.Len8(uint8(set)) - 1
			o, q := set*NumStates, (set&^(1<<j))*NumStates
			row, rest := tab[o:o+NumStates:o+NumStates], tab[q:q+NumStates:q+NumStates]
			row[0] = rest[0] + pm[j]
			row[1] = rest[1] + pm[NumStates+j]
			row[2] = rest[2] + pm[2*NumStates+j]
			row[3] = rest[3] + pm[3*NumStates+j]
		}
	}
}

// downSide makes s the subtree below c seen from c's parent: c's down vector
// through P(c.Length), or for a tip the lookup table of its state sets,
// expanded into tipTab[slot].
func (e *Engine) downSide(s *kernelSide, c *Node, slot int) {
	p := e.trans.get(c.ID, c.Length)
	if c.IsTip() {
		e.fillTipTable(e.tipTab[slot], p)
		*s = kernelSide{states: e.Data.States[c.Taxon], tab: e.tipTab[slot]}
		return
	}
	*s = kernelSide{v: e.downVec(c.ID), scale: e.downScaleVec(c.ID), p: p}
}

// Newview computes the conditional likelihood vector of an internal node from
// its two children — the paper's newview() kernel. The children's vectors
// must already be up to date.
//
// Newview, EvaluateRoot and MakenewzEdge neither consult nor update the dirty
// tracking of incremental.go. Outside this package they are for timing a
// kernel in isolation: with the inputs unchanged since a Refresh (the result
// is then the bits already there), or with a Refresh afterwards. Everything
// else goes through LogLikelihood, Refresh, Optimize*, Search* and the
// Invalidate* calls, or a later incremental evaluation returns stale values.
func (e *Engine) Newview(n *Node) {
	if n.IsTip() {
		return
	}
	e.Stats.NewviewCalls++
	a := &e.nvA
	e.downSide(&a.l, n.Children[0], 0)
	e.downSide(&a.r, n.Children[1], 1)
	a.dst = e.downVec(n.ID)
	a.scale = e.downScaleVec(n.ID)
	e.loop(e.nPat, e.nvFn)
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

// computeOut refreshes the out vector of every node below u — for each, the
// conditional likelihood of all data outside its subtree given the state at
// its parent — parents before children, stamping each with the current tree
// epoch. out[u] and every down vector must be current. Branch optimization
// does not call this: it repairs only the root-to-edge path it needs through
// ensureOut (incremental.go).
func (e *Engine) computeOut(u *Node) {
	for _, v := range u.Children {
		e.computeOutOne(u, v)
	}
	for _, v := range u.Children {
		e.computeOut(v)
	}
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
	e.computeOut(t.Root)
}

// evaluateArgs is the argument block of the root-evaluation loop body.
type evaluateArgs struct {
	rootVec   []float64
	rootScale []float64
	site      []float64
	freqs     Frequencies
	catWeight float64
}

// evaluateBody is the per-pattern loop of the evaluate() kernel, for one rate
// category and for four; no architecture fuses a product it rounds.
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
			siteL += float64(f0*rootVec[off]) + float64(f1*rootVec[off+1]) + float64(f2*rootVec[off+2]) + float64(f3*rootVec[off+3])
		}
		siteL *= catWeight
		if siteL <= 0 {
			siteL = math.SmallestNonzeroFloat64
		}
		site[i] = weights[i] * (ln(siteL) + rootScale[i])
	}
}

// Evaluate computes the log-likelihood of the tree at the root — the paper's
// evaluate() kernel. computeDown must have run first.
func (e *Engine) evaluateAtRoot(t *Tree) float64 {
	e.Stats.EvaluateCalls++
	root := t.Root
	a := &e.evalA
	a.rootVec = e.downVec(root.ID)
	a.rootScale = e.downScaleVec(root.ID)
	a.freqs = e.Model.Frequencies()
	a.catWeight = 1.0 / float64(e.nCat)

	// Per-pattern contributions are written to disjoint slots of the
	// pre-sized buffer, so the loop is safe under any ParallelFor executor;
	// the final reduction is serial, mirroring the master-side reduction of
	// the paper's work-sharing scheme.
	a.site = e.siteBuf[:e.nPat]
	e.loop(e.nPat, e.evalFn)
	var sum float64
	for _, v := range a.site {
		sum += v
	}
	return sum
}

// EvaluateRoot exposes the evaluate() kernel on its own: it computes the
// log-likelihood from the current root conditional vector without refreshing
// anything. Refresh or LogLikelihood must have run on t first; calibration
// uses it to time the kernel in isolation, the only use outside this package
// (see Newview).
func (e *Engine) EvaluateRoot(t *Tree) float64 { return e.evaluateAtRoot(t) }

// LogLikelihood returns the log-likelihood of the tree, recomputing only the
// conditional vectors invalidated since the last evaluation (all of them the
// first time the engine sees t). Callers that mutated the tree directly must
// have invalidated the affected edges (see incremental.go); Refresh is the
// always-safe full recompute.
func (e *Engine) LogLikelihood(t *Tree) float64 {
	e.computeDown(t)
	return e.evaluateAtRoot(t)
}

// initSpectrum reads the model's eigendecomposition into the constants the
// sum-table kernels index: V, V⁻¹, the per-state-set column sums of V⁻¹ that
// stand in for a tip's down vector (summed in ascending state order, as
// fillTipTable does), and eigen[k]·rate[r] for every category.
func (e *Engine) initSpectrum() {
	var eigen [NumStates]float64
	eigen, e.specV, e.specInv = e.Model.Spectrum()
	for bits := 0; bits < tipStates; bits++ {
		for k := 0; k < NumStates; k++ {
			var sum float64
			for t := 0; t < NumStates; t++ {
				if bits&(1<<uint(t)) != 0 {
					sum += e.specInv[k][t]
				}
			}
			e.tipInv[bits*NumStates+k] = sum
		}
	}
	e.lamRate = make([]float64, e.stride)
	e.expTab = make([]float64, e.nCat*expRow)
	for r, rate := range e.Rates.Rates {
		for k := 0; k < NumStates; k++ {
			e.lamRate[r*NumStates+k] = eigen[k] * rate
		}
	}
}

// sumTableBody1 builds the sum table for one rate category (sumTableBody4 for
// four), share by share inside the first Newton pass (firstPass) — RAxML's
// sumGAMMA: the conditional vectors at the two ends of the edge above sumNode
// move into the model's eigenbasis and are multiplied there,
// A[i,r,k] = (Σ_s out[s]·V[s][k]) · (Σ_t V⁻¹[k][t]·down[t]). A tip's second
// factor is one row of tipInv, the same for every category. Every pattern
// writes its own slots. Every product that meets a sum is rounded before it is
// added, so no architecture fuses one.
func (e *Engine) sumTableBody1(lo, hi int) {
	ov, oscale, dv, dscale, st := e.sumSides()
	tab, scale := e.sumTab, e.sumScale
	v, w, tip := &e.specV, &e.specInv, &e.tipInv
	for i := lo; i < hi; i++ {
		off := i * NumStates
		var r0, r1, r2, r3 float64
		if st != nil {
			o := int(st[i]&(tipStates-1)) * NumStates
			r0, r1, r2, r3 = tip[o], tip[o+1], tip[o+2], tip[o+3]
		} else {
			dw := dv[off : off+NumStates : off+NumStates]
			d0, d1, d2, d3 := dw[0], dw[1], dw[2], dw[3]
			r0 = float64(w[0][0]*d0) + float64(w[0][1]*d1) + float64(w[0][2]*d2) + float64(w[0][3]*d3)
			r1 = float64(w[1][0]*d0) + float64(w[1][1]*d1) + float64(w[1][2]*d2) + float64(w[1][3]*d3)
			r2 = float64(w[2][0]*d0) + float64(w[2][1]*d1) + float64(w[2][2]*d2) + float64(w[2][3]*d3)
			r3 = float64(w[3][0]*d0) + float64(w[3][1]*d1) + float64(w[3][2]*d2) + float64(w[3][3]*d3)
		}
		ow := ov[off : off+NumStates : off+NumStates]
		o0, o1, o2, o3 := ow[0], ow[1], ow[2], ow[3]
		t := tab[off : off+NumStates : off+NumStates]
		t[0] = (float64(o0*v[0][0]) + float64(o1*v[1][0]) + float64(o2*v[2][0]) + float64(o3*v[3][0])) * r0
		t[1] = (float64(o0*v[0][1]) + float64(o1*v[1][1]) + float64(o2*v[2][1]) + float64(o3*v[3][1])) * r1
		t[2] = (float64(o0*v[0][2]) + float64(o1*v[1][2]) + float64(o2*v[2][2]) + float64(o3*v[3][2])) * r2
		t[3] = (float64(o0*v[0][3]) + float64(o1*v[1][3]) + float64(o2*v[2][3]) + float64(o3*v[3][3])) * r3
		sc := 0.0
		if dscale != nil {
			sc += dscale[i]
		}
		scale[i] = sc + oscale[i]
	}
}

// sumTableBody4 is sumTableBody1 for four rate categories: the tip/inner
// branch is taken once per pattern, outside the category loop.
func (e *Engine) sumTableBody4(lo, hi int) {
	ov, oscale, dv, dscale, st := e.sumSides()
	tab, scale := e.sumTab, e.sumScale
	v, w, tip := &e.specV, &e.specInv, &e.tipInv
	for i := lo; i < hi; i++ {
		base := i * 16
		ow, t := ov[base:base+16:base+16], tab[base:base+16:base+16]
		if st != nil {
			o := int(st[i]&(tipStates-1)) * NumStates
			r0, r1, r2, r3 := tip[o], tip[o+1], tip[o+2], tip[o+3]
			for r := 0; r < 4; r++ {
				x, tr := ow[r*NumStates:r*NumStates+4:r*NumStates+4], t[r*NumStates:r*NumStates+4:r*NumStates+4]
				o0, o1, o2, o3 := x[0], x[1], x[2], x[3]
				tr[0] = (float64(o0*v[0][0]) + float64(o1*v[1][0]) + float64(o2*v[2][0]) + float64(o3*v[3][0])) * r0
				tr[1] = (float64(o0*v[0][1]) + float64(o1*v[1][1]) + float64(o2*v[2][1]) + float64(o3*v[3][1])) * r1
				tr[2] = (float64(o0*v[0][2]) + float64(o1*v[1][2]) + float64(o2*v[2][2]) + float64(o3*v[3][2])) * r2
				tr[3] = (float64(o0*v[0][3]) + float64(o1*v[1][3]) + float64(o2*v[2][3]) + float64(o3*v[3][3])) * r3
			}
		} else {
			dw := dv[base : base+16 : base+16]
			for r := 0; r < 4; r++ {
				y := dw[r*NumStates : r*NumStates+4 : r*NumStates+4]
				d0, d1, d2, d3 := y[0], y[1], y[2], y[3]
				r0 := float64(w[0][0]*d0) + float64(w[0][1]*d1) + float64(w[0][2]*d2) + float64(w[0][3]*d3)
				r1 := float64(w[1][0]*d0) + float64(w[1][1]*d1) + float64(w[1][2]*d2) + float64(w[1][3]*d3)
				r2 := float64(w[2][0]*d0) + float64(w[2][1]*d1) + float64(w[2][2]*d2) + float64(w[2][3]*d3)
				r3 := float64(w[3][0]*d0) + float64(w[3][1]*d1) + float64(w[3][2]*d2) + float64(w[3][3]*d3)
				x, tr := ow[r*NumStates:r*NumStates+4:r*NumStates+4], t[r*NumStates:r*NumStates+4:r*NumStates+4]
				o0, o1, o2, o3 := x[0], x[1], x[2], x[3]
				tr[0] = (float64(o0*v[0][0]) + float64(o1*v[1][0]) + float64(o2*v[2][0]) + float64(o3*v[3][0])) * r0
				tr[1] = (float64(o0*v[0][1]) + float64(o1*v[1][1]) + float64(o2*v[2][1]) + float64(o3*v[3][1])) * r1
				tr[2] = (float64(o0*v[0][2]) + float64(o1*v[1][2]) + float64(o2*v[2][2]) + float64(o3*v[3][2])) * r2
				tr[3] = (float64(o0*v[0][3]) + float64(o1*v[1][3]) + float64(o2*v[2][3]) + float64(o3*v[3][3])) * r3
			}
		}
		sc := 0.0
		if dscale != nil {
			sc += dscale[i]
		}
		scale[i] = sc + oscale[i]
	}
}

// sumSides returns the two ends of the edge above sumNode: its out vector and
// scalers, and its down vector and scalers or, for a tip, its state sets.
func (e *Engine) sumSides() (ov, oscale, dv, dscale []float64, st []uint8) {
	n := e.sumNode
	if n.IsTip() {
		st = e.Data.States[n.Taxon]
	} else {
		dv, dscale = e.downVec(n.ID), e.downScaleVec(n.ID)
	}
	return e.outVec(n.ID), e.outScaleVec(n.ID), dv, dscale, st
}

// expRow is the number of expTab entries per rate category: the diagonal
// exp(λ_k·r·b)/nCat for the four k, then its λ_k·r and (λ_k·r)² multiples.
const expRow = 3 * NumStates

// fillExpTab sets the diagonals for branch length b.
func (e *Engine) fillExpTab(b float64) []float64 {
	ex := e.expTab
	catWeight := 1.0 / float64(e.nCat)
	for j, lr := range e.lamRate {
		o := j/NumStates*expRow + j%NumStates
		x := catWeight * math.Exp(lr*b)
		ex[o], ex[o+NumStates], ex[o+2*NumStates] = x, lr*x, lr*lr*x
	}
	return ex
}

// newtonArgs is the argument block of the loop bodies over the sum table, and
// where the share of the loop that starts at pattern 0 leaves its two sums.
type newtonArgs struct {
	ex     []float64 // the diagonals of the pass (fillExpTab, acceptPass)
	upTo   int       // s1 and s2 cover patterns [0, upTo)
	s1, s2 float64
}

// newtonBody1 is the per-pattern loop of a Newton pass over the sum table for
// one rate category (newtonBody4 for four) — RAxML's coreGTRGAMMA: per pattern
// a dozen multiply-adds against the three diagonals, held in locals, then the
// pattern's two terms w·g and w·(l₂/l₀ − g²), g = l₁/l₀. A pattern of
// likelihood zero has no slope to follow (1/l₀ would be +Inf and both terms
// NaN): it contributes +0.0 twice, which leaves a sum that started at +0.0 as
// it was.
//
// The sums are the terms added in ascending pattern order, and that order is
// the result's bits: the share that starts at pattern 0 (an un-split loop's
// only share) adds its terms as it goes and leaves the sums, any other stores
// them (termBuf) for sums to add behind. Every product that meets a sum is
// rounded before it is added, so no architecture fuses one.
func (e *Engine) newtonBody1(lo, hi int) {
	a := &e.ntA
	tab, weights, terms := e.sumTab, e.Data.Weights, e.termBuf
	x := a.ex[:expRow:expRow]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	x4, x5, x6, x7, x8, x9, x10, x11 := x[4], x[5], x[6], x[7], x[8], x[9], x[10], x[11]
	first := lo == 0 && hi > 0 // an empty share at 0 must not clear the first's sums
	var d1, d2 float64
	for i := lo; i < hi; i++ {
		o := i * NumStates
		t := tab[o : o+NumStates : o+NumStates]
		a0, a1, a2, a3 := t[0], t[1], t[2], t[3]
		var l0, l1, l2 float64
		l0 += float64(a0*x0) + float64(a1*x1) + float64(a2*x2) + float64(a3*x3)
		l1 += float64(a0*x4) + float64(a1*x5) + float64(a2*x6) + float64(a3*x7)
		l2 += float64(a0*x8) + float64(a1*x9) + float64(a2*x10) + float64(a3*x11)
		if l0 <= 0 {
			if !first {
				terms[2*i], terms[2*i+1] = 0, 0
			}
			continue
		}
		w := weights[i]
		inv := 1 / l0
		g := l1 * inv
		t1, t2 := float64(w*g), float64(w*(float64(l2*inv)-float64(g*g)))
		if first {
			d1, d2 = d1+t1, d2+t2
		} else {
			terms[2*i], terms[2*i+1] = t1, t2
		}
	}
	if first {
		a.s1, a.s2, a.upTo = d1, d2, hi
	}
}

// newtonBody4 is newtonBody1 for four rate categories, its category loop
// unrolled against the diagonals read through one slice. Every product that
// meets a sum is rounded before it is added, so no architecture fuses one.
func (e *Engine) newtonBody4(lo, hi int) {
	a := &e.ntA
	tab, weights, terms := e.sumTab, e.Data.Weights, e.termBuf
	x := a.ex[: 4*expRow : 4*expRow]
	first := lo == 0 && hi > 0 // an empty share at 0 must not clear the first's sums
	var d1, d2 float64
	for i := lo; i < hi; i++ {
		o := i * 16
		t := tab[o : o+16 : o+16]
		var l0 float64
		l0 += float64(t[0]*x[0]) + float64(t[1]*x[1]) + float64(t[2]*x[2]) + float64(t[3]*x[3])
		l0 += float64(t[4]*x[12]) + float64(t[5]*x[13]) + float64(t[6]*x[14]) + float64(t[7]*x[15])
		l0 += float64(t[8]*x[24]) + float64(t[9]*x[25]) + float64(t[10]*x[26]) + float64(t[11]*x[27])
		l0 += float64(t[12]*x[36]) + float64(t[13]*x[37]) + float64(t[14]*x[38]) + float64(t[15]*x[39])
		if l0 <= 0 {
			if !first {
				terms[2*i], terms[2*i+1] = 0, 0
			}
			continue
		}
		var l1, l2 float64
		l1 += float64(t[0]*x[4]) + float64(t[1]*x[5]) + float64(t[2]*x[6]) + float64(t[3]*x[7])
		l1 += float64(t[4]*x[16]) + float64(t[5]*x[17]) + float64(t[6]*x[18]) + float64(t[7]*x[19])
		l1 += float64(t[8]*x[28]) + float64(t[9]*x[29]) + float64(t[10]*x[30]) + float64(t[11]*x[31])
		l1 += float64(t[12]*x[40]) + float64(t[13]*x[41]) + float64(t[14]*x[42]) + float64(t[15]*x[43])
		l2 += float64(t[0]*x[8]) + float64(t[1]*x[9]) + float64(t[2]*x[10]) + float64(t[3]*x[11])
		l2 += float64(t[4]*x[20]) + float64(t[5]*x[21]) + float64(t[6]*x[22]) + float64(t[7]*x[23])
		l2 += float64(t[8]*x[32]) + float64(t[9]*x[33]) + float64(t[10]*x[34]) + float64(t[11]*x[35])
		l2 += float64(t[12]*x[44]) + float64(t[13]*x[45]) + float64(t[14]*x[46]) + float64(t[15]*x[47])
		w := weights[i]
		inv := 1 / l0
		g := l1 * inv
		t1, t2 := float64(w*g), float64(w*(float64(l2*inv)-float64(g*g)))
		if first {
			d1, d2 = d1+t1, d2+t2
		} else {
			terms[2*i], terms[2*i+1] = t1, t2
		}
	}
	if first {
		a.s1, a.s2, a.upTo = d1, d2, hi
	}
}

// acceptBody1 is the per-pattern loop of the acceptance pass for one rate
// category (acceptBody4 for four): the pattern's likelihood at the two lengths
// whose diagonals acceptPass left in the first two rows of expTab, each raised
// to math.SmallestNonzeroFloat64 where it is not positive, and its two terms
// w·(ln l + scale). Its shares sum and store their terms as newtonBody1's do.
// Every product is rounded before it is added, so no architecture fuses one.
func (e *Engine) acceptBody1(lo, hi int) {
	a := &e.ntA
	x := a.ex[:expRow:expRow]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	tab, scale, weights := e.sumTab, e.sumScale, e.Data.Weights
	first := lo == 0 && hi > 0 // an empty share at 0 must not clear the first's sums
	var s1, s2 float64
	for i := lo; i < hi; i++ {
		o := i * NumStates
		t := tab[o : o+NumStates : o+NumStates]
		a0, a1, a2, a3 := t[0], t[1], t[2], t[3]
		var l0, l1 float64
		l0 += float64(a0*x0) + float64(a1*x1) + float64(a2*x2) + float64(a3*x3)
		l1 += float64(a0*x4) + float64(a1*x5) + float64(a2*x6) + float64(a3*x7)
		l0, l1 = max(l0, math.SmallestNonzeroFloat64), max(l1, math.SmallestNonzeroFloat64)
		w, sc := weights[i], scale[i]
		ln0, ln1 := ln2(l0, l1)
		t0, t1 := float64(w*(ln0+sc)), float64(w*(ln1+sc))
		if first {
			s1, s2 = s1+t0, s2+t1
		} else {
			e.termBuf[2*i], e.termBuf[2*i+1] = t0, t1
		}
	}
	if first {
		a.s1, a.s2, a.upTo = s1, s2, hi
	}
}

// acceptBody4 is acceptBody1 for four rate categories, the category loop
// unrolled; every product is rounded before it is added, as there.
func (e *Engine) acceptBody4(lo, hi int) {
	a := &e.ntA
	x := a.ex[: 4*expRow : 4*expRow]
	tab, scale, weights := e.sumTab, e.sumScale, e.Data.Weights
	first := lo == 0 && hi > 0 // an empty share at 0 must not clear the first's sums
	var s1, s2 float64
	for i := lo; i < hi; i++ {
		o := i * 16
		t := tab[o : o+16 : o+16]
		var l0, l1 float64
		l0 += float64(t[0]*x[0]) + float64(t[1]*x[1]) + float64(t[2]*x[2]) + float64(t[3]*x[3])
		l0 += float64(t[4]*x[12]) + float64(t[5]*x[13]) + float64(t[6]*x[14]) + float64(t[7]*x[15])
		l0 += float64(t[8]*x[24]) + float64(t[9]*x[25]) + float64(t[10]*x[26]) + float64(t[11]*x[27])
		l0 += float64(t[12]*x[36]) + float64(t[13]*x[37]) + float64(t[14]*x[38]) + float64(t[15]*x[39])
		l1 += float64(t[0]*x[4]) + float64(t[1]*x[5]) + float64(t[2]*x[6]) + float64(t[3]*x[7])
		l1 += float64(t[4]*x[16]) + float64(t[5]*x[17]) + float64(t[6]*x[18]) + float64(t[7]*x[19])
		l1 += float64(t[8]*x[28]) + float64(t[9]*x[29]) + float64(t[10]*x[30]) + float64(t[11]*x[31])
		l1 += float64(t[12]*x[40]) + float64(t[13]*x[41]) + float64(t[14]*x[42]) + float64(t[15]*x[43])
		l0, l1 = max(l0, math.SmallestNonzeroFloat64), max(l1, math.SmallestNonzeroFloat64)
		w, sc := weights[i], scale[i]
		ln0, ln1 := ln2(l0, l1)
		t0, t1 := float64(w*(ln0+sc)), float64(w*(ln1+sc))
		if first {
			s1, s2 = s1+t0, s2+t1
		} else {
			e.termBuf[2*i], e.termBuf[2*i+1] = t0, t1
		}
	}
	if first {
		a.s1, a.s2, a.upTo = s1, s2, hi
	}
}

// sums runs body, a loop over the sum table, on every pattern and returns its
// two sums: the first share's, then every term the other shares stored, added
// behind them in pattern order (all of them if no share left sums). Each call
// is one DerivEvals pass.
func (e *Engine) sums(body func(lo, hi int)) (s1, s2 float64) {
	e.Stats.DerivEvals++
	a := &e.ntA
	a.upTo, a.s1, a.s2 = 0, 0, 0
	e.loop(e.nPat, body)
	s1, s2 = a.s1, a.s2
	for i := a.upTo; i < e.nPat; i++ {
		s1, s2 = s1+e.termBuf[2*i], s2+e.termBuf[2*i+1]
	}
	return s1, s2
}

// newtonPass returns the first and second derivatives in the length of the
// log-likelihood of the edge whose sum table is loaded, set to length b.
func (e *Engine) newtonPass(b float64) (d1, d2 float64) {
	e.ntA.ex = e.fillExpTab(b)
	return e.sums(e.ntFn)
}

// firstPass is newtonPass for the first iterate of a visit to the edge above
// v: each share folds down[v] and out[v], which must be current (ensureOut, or
// Refresh), into its own rows of the edge's sum table (sumFn) before it reads
// them, so a visit spends no loop on the table alone.
func (e *Engine) firstPass(v *Node, b float64) (d1, d2 float64) {
	e.sumNode = v
	e.ntA.ex = e.fillExpTab(b)
	return e.sums(e.firstFn)
}

// acceptPass returns the log-likelihoods of the edge whose sum table is loaded
// at lengths old and nb, from one pass (accFn). The diagonals are
// fillExpTab's for each length.
func (e *Engine) acceptPass(old, nb float64) (before, after float64) {
	ex := e.expTab
	catWeight := 1.0 / float64(e.nCat)
	for j, lr := range e.lamRate {
		o := j/NumStates*expRow + j%NumStates
		ex[o], ex[o+NumStates] = catWeight*math.Exp(lr*old), catWeight*math.Exp(lr*nb)
	}
	e.ntA.ex = ex
	return e.sums(e.accFn)
}

// LoopBody sets up one of the engine's per-pattern loops on the edge above the
// inner node v of a Refreshed tree and returns its body, which any split of
// [0, NumPatterns()) covers: "newview" fills v's down vector from its
// children, "newton" is one derivative pass over the edge's sum table at
// v.Length (its sums are dropped). It is there for the crossover benchmark of
// internal/native, which times the bodies under its own executor at sizes the
// engine would keep to itself (loopCrossover); nothing else calls it.
func (e *Engine) LoopBody(kind string, v *Node) func(lo, hi int) {
	if kind == "newton" {
		e.firstPass(v, v.Length) // builds the sum table, leaves v.Length's diagonals
		return e.ntFn
	}
	a := &e.nvA
	e.downSide(&a.l, v.Children[0], 0)
	e.downSide(&a.r, v.Children[1], 1)
	a.dst, a.scale = e.downVec(v.ID), e.downScaleVec(v.ID)
	return e.nvFn
}

// makenewz Newton-Raphson-optimizes the length of the edge above v, starting
// from its current length clamped to MinBranchLength, and builds the edge's
// sum table in the first pass — the iteration of the paper's makenewz()
// kernel. Every pass is derivative-only: the likelihood is optimizeEdge's
// acceptance pass's business, and only when the length moved.
func (e *Engine) makenewz(v *Node) float64 {
	e.Stats.MakenewzCalls++
	b := max(v.Length, MinBranchLength)
	d1, d2 := e.firstPass(v, b)
	for iter := 1; ; iter++ {
		var step float64
		if d2 < 0 {
			step = -d1 / d2
		} else {
			// Not locally concave: take a damped gradient step.
			step = math.Copysign(math.Min(0.1, math.Abs(d1)*1e-3), d1)
		}
		nb := min(max(b+step, MinBranchLength), MaxBranchLength)
		if math.Abs(nb-b) < newtonTolerance || iter == newtonMaxIter {
			return nb
		}
		b = nb
		d1, d2 = e.newtonPass(b)
	}
}

// MakenewzEdge exposes the makenewz() kernel on its own: it builds the sum
// table of the edge above v from the current down/out vectors and returns the
// Newton-optimized length without mutating the tree. Refresh must have run
// first; calibration uses it to time the kernel in isolation, the only use
// outside this package (see Newview).
func (e *Engine) MakenewzEdge(v *Node) float64 { return e.makenewz(v) }

// optimizeEdge settles the conditional vectors the edge above v depends on
// (a partial traversal: only the stale part of the root-to-v out path and the
// down vectors it reads are recomputed), folds them into the edge's sum table
// and Newton-optimizes the length against it, keeping the new length only if
// it genuinely improves the likelihood (which, with settled vectors, makes
// every accepted update monotone). An accepted change invalidates what reads
// the length. It reports whether the length changed materially.
func (e *Engine) optimizeEdge(t *Tree, v *Node) bool {
	e.ensureOut(t, v)
	old := v.Length
	nb := e.makenewz(v)
	if nb == old {
		// Newton left the length where it was (pinned at a bound, or a zero
		// step): nothing to accept, so no likelihood is computed.
		return false
	}
	before, after := e.acceptPass(old, nb)
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

// OptimizeAllBranches performs up to the given number of smoothing rounds:
// each round Newton-optimizes every branch once, settling the conditional
// vectors each edge depends on (a partial traversal, not a full refresh) so
// that every accepted update improves the likelihood. It returns the final
// log-likelihood. OptimizeLocal is the constant-size-neighborhood variant
// the tree search uses per NNI candidate.
func (e *Engine) OptimizeAllBranches(t *Tree, rounds int) float64 {
	ll, _ := e.optimizeEdges(t, t.Nodes, rounds)
	return ll
}

// newviewTips4 is newviewBody4's loop for two table sides: each category's
// values are the two rows' entries multiplied state by state. Table sides have
// no log scalers, so the pattern's log scaler starts at 0.
func (e *Engine) newviewTips4(lo, hi int) {
	a := &e.nvA
	lst, ltab := a.l.states, a.l.tab[:4*tipStates*NumStates:4*tipStates*NumStates]
	rst, rtab := a.r.states, a.r.tab[:4*tipStates*NumStates:4*tipStates*NumStates]
	dst, scale := a.dst, a.scale
	for i := lo; i < hi; i++ {
		base := i * 16
		d := dst[base : base+16 : base+16]
		ol, or := int(lst[i]&(tipStates-1))*NumStates, int(rst[i]&(tipStates-1))*NumStates
		big := false
		for r := 0; r < 4; r++ {
			q := r * tipStates * NumStates
			x, y := ltab[q+ol:q+ol+4:q+ol+4], rtab[q+or:q+or+4:q+or+4]
			v0, v1, v2, v3 := x[0]*y[0], x[1]*y[1], x[2]*y[2], x[3]*y[3]
			dr := d[r*NumStates : r*NumStates+4 : r*NumStates+4]
			dr[0], dr[1], dr[2], dr[3] = v0, v1, v2, v3
			big = big || v0 >= scalingThreshold || v1 >= scalingThreshold || v2 >= scalingThreshold || v3 >= scalingThreshold
		}
		sc := 0.0
		if !big {
			sc = rescale(d, sc)
		}
		scale[i] = sc
	}
}
