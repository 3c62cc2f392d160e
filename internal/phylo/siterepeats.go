package phylo

import "math/bits"

// This file implements site-repeat compression: alignment patterns whose data
// is identical across every tip of a node's subtree have, by induction,
// bit-identical conditional likelihood vectors at that node under ANY branch
// lengths — so only one representative per repeat class needs to run through
// the Newview loop body; the rest are vector copies. This is the technique
// behind RAxML-NG's speedups over the paper's RAxML baseline (Kobert et al.),
// and it composes with pattern compression: Compress dedupes globally
// identical columns, repeats dedupe columns identical only within a subtree.
//
// Per internal node the engine keeps a class id per pattern (repClass). Two
// patterns are in the same class iff their (left class, right class) pairs
// match; a tip's class is its 4-bit observed state set, so the base case and
// the inductive step both hold exactly — equal class implies equal kernel
// inputs implies bit-identical output, including the underflow-rescaling
// decisions. That makes the compressed evaluation byte-identical to running
// every pattern through the loop, which the property tests in
// siterepeats_test.go assert by switching the engine's unexported repOn field
// off (export_test.go); nothing outside the tests does.
//
// Invalidation rule: class vectors depend only on subtree COMPOSITION, never
// on branch lengths. InvalidateEdge therefore leaves them untouched, while
// InvalidateNode (an NNI changed which tips sit below the path nodes) and the
// full invalidations mark the ancestor path repeat-dirty alongside the usual
// down-dirty marking (incremental.go). Newview rebuilds a node's classes
// lazily, right before using them.
//
// All bookkeeping lives in flat engine-owned blocks (NewEngine) and the
// pair table is generation-stamped, so steady-state searches rebuild classes
// without allocating.

// repClassVec returns the class-id vector of an internal node.
func (e *Engine) repClassVec(id int) []int32 {
	o := id * e.nPat
	return e.repClass[o : o+e.nPat : o+e.nPat]
}

// repSrcVec returns the representative-pattern vector of an internal node.
func (e *Engine) repSrcVec(id int) []int32 {
	o := id * e.nPat
	return e.repSrc[o : o+e.nPat : o+e.nPat]
}

// childClasses returns the class description of a node viewed as a child:
// either its class-id vector (internal node) or its observed state sets (tip,
// where the 4-bit set IS the class).
func (e *Engine) childClasses(n *Node) (cls []int32, states []uint8) {
	if n.IsTip() {
		return nil, e.Data.States[n.Taxon]
	}
	return e.repClassVec(n.ID), nil
}

// pairSlot is one pair-table entry: (left class, right class), its rebuild's
// generation stamp, and the class the pair maps to.
type pairSlot struct {
	key   uint64
	gen   uint32
	class int32
}

// rebuildClasses recomputes the repeat classes of n from its children's
// classes. Class ids are assigned in first-occurrence pattern order, so the
// result is deterministic. The pair table maps (left class, right class) to
// the class id by linear probing; NewEngine sizes it to more than 2·nPat
// slots, at most half full however many classes the children have (their
// product can reach nPat²). Generation stamps make reuse across nodes free.
func (e *Engine) rebuildClasses(n *Node) {
	lcls, lst := e.childClasses(n.Children[0])
	rcls, rst := e.childClasses(n.Children[1])
	tab := e.pairTab
	mask := len(tab) - 1
	shift := bits.LeadingZeros64(uint64(mask))
	e.pairCur++
	if e.pairCur == 0 { // generation counter wrapped: stamps are ambiguous
		clear(tab)
		e.pairCur = 1
	}
	g := e.pairCur
	id := n.ID
	cls := e.repClassVec(id)
	src := e.repSrcVec(id)
	uniq := e.repUniq[id*e.nPat : (id+1)*e.nPat]
	dup := e.repDup[id*e.nPat : (id+1)*e.nPat]
	cnt := int32(0)
	ndup := 0
	for i := 0; i < e.nPat; i++ {
		var lc, rc uint64
		if lst != nil {
			lc = uint64(lst[i])
		} else {
			lc = uint64(lcls[i])
		}
		if rst != nil {
			rc = uint64(rst[i])
		} else {
			rc = uint64(rcls[i])
		}
		key := lc<<32 | rc
		s := int(key * 0x9e3779b97f4a7c15 >> shift) // Fibonacci hashing: the product's top bits
		for tab[s].gen == g && tab[s].key != key {
			s = (s + 1) & mask
		}
		if tab[s].gen != g {
			tab[s] = pairSlot{key: key, gen: g, class: cnt}
			uniq[cnt] = int32(i)
			cnt++
		} else {
			dup[ndup] = int32(i)
			ndup++
		}
		c := tab[s].class
		cls[i] = c
		src[i] = uniq[c]
	}
	e.repCnt[id] = cnt
}

// repCopy materializes the full destination vector from the representatives:
// every duplicate pattern copies the conditional vector and scaler of its
// class representative, walking the duplicate list built by rebuildClasses
// (cost proportional to the copies actually made, not to nPat). Runs serially
// after the parallel kernel pass (representative slots are disjoint, copies
// read settled data).
func (e *Engine) repCopy(n *Node) {
	a := &e.nvA
	dst, scale := a.dst, a.scale
	id := n.ID
	src := e.repSrcVec(id)
	ndup := e.nPat - int(e.repCnt[id])
	dup := e.repDup[id*e.nPat : id*e.nPat+ndup]
	stride := e.stride
	if stride == NumStates {
		// Single rate category: 4 scalar moves beat a memmove call.
		for _, di := range dup {
			i := int(di)
			si := int(src[i])
			d := dst[i*NumStates : i*NumStates+NumStates : i*NumStates+NumStates]
			s := dst[si*NumStates : si*NumStates+NumStates : si*NumStates+NumStates]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			scale[i] = scale[si]
		}
	} else {
		for _, di := range dup {
			i := int(di)
			si := int(src[i])
			copy(dst[i*stride:(i+1)*stride], dst[si*stride:(si+1)*stride])
			scale[i] = scale[si]
		}
	}
	e.Stats.RepeatsCopied += ndup
}

// newviewRepeats is the site-repeat path of Newview: rebuild n's classes if
// its subtree composition changed, run the kernel over the representative
// patterns only, then copy the duplicates. When every pattern is its own
// class (near the root of diverse data) the plain full-range kernel runs.
//
// A repeat-dirty mark means the classes are POSSIBLY stale (the invalidation
// paths mark conservatively — InvalidateAll cannot know whether the caller
// changed the topology). The classes are a pure function of the children's
// identities and class vectors, so the rebuild is skipped when the child IDs
// and child class versions match the ones the classes were last built from;
// rebuilding bumps this node's version, which transitively triggers the
// ancestors' rebuilds. A full invalidation on an unchanged topology therefore
// re-verifies every node in O(1) instead of re-deriving classes in O(nPat).
func (e *Engine) newviewRepeats(n *Node) {
	id := n.ID
	if e.repDirty[id] {
		l, r := n.Children[0], n.Children[1]
		var lv, rv uint64
		if !l.IsTip() {
			lv = e.repVer[l.ID]
		}
		if !r.IsTip() {
			rv = e.repVer[r.ID]
		}
		if int32(l.ID) != e.repBuiltL[id] || int32(r.ID) != e.repBuiltR[id] ||
			lv != e.repBuiltLV[id] || rv != e.repBuiltRV[id] {
			e.rebuildClasses(n)
			e.repVer[id]++
			e.repBuiltL[id], e.repBuiltR[id] = int32(l.ID), int32(r.ID)
			e.repBuiltLV[id], e.repBuiltRV[id] = lv, rv
		}
		e.repDirty[id] = false
	}
	cnt := int(e.repCnt[id])
	a := &e.nvA
	if cnt >= e.nPat {
		e.loop(e.nPat, e.nvFn)
		return
	}
	a.uniq = e.repUniq[id*e.nPat : id*e.nPat+cnt]
	e.loop(cnt, e.nvFn)
	a.uniq = nil
	e.repCopy(n)
}
