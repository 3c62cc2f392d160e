package phylo

import "math"

// The loop-form reference of the loops NewEngine picks a body for by category
// count (useGeneralBodies), for any count: one loop per category, state and
// term, rounded and added in the bodies' order; Newton and acceptance store all.

// dot is Σ_j a[j]·b[j] over the four states, in ascending j.
func dot(a, b []float64) float64 {
	s := float64(a[0] * b[0])
	for j := 1; j < NumStates; j++ {
		s += float64(a[j] * b[j])
	}
	return s
}

func at(scale []float64, i int) float64 { // scale[i], or 0 for a side without log scalers
	if scale == nil {
		return 0
	}
	return scale[i]
}

// refSide is newview's side k at pattern i, category r and state s.
func (e *Engine) refSide(k *kernelSide, i, r, s int) float64 {
	if k.states != nil {
		return k.tab[(r*tipStates+int(k.states[i]))*NumStates+s]
	}
	return dot(k.p[r*flatMatSize+s*NumStates:], k.v[i*e.stride+r*NumStates:])
}

// refNewview multiplies the sides; a pattern under scalingThreshold rescales.
func (e *Engine) refNewview(lo, hi int) {
	a := &e.nvA
	for i := lo; i < hi; i++ {
		d, big := a.dst[i*e.stride:(i+1)*e.stride], false
		for r := 0; r < e.nCat; r++ {
			for s := 0; s < NumStates; s++ {
				v := e.refSide(&a.l, i, r, s) * e.refSide(&a.r, i, r, s)
				d[r*NumStates+s], big = v, big || v >= scalingThreshold
			}
		}
		if a.scale[i] = 0 + at(a.l.scale, i) + at(a.r.scale, i); !big {
			a.scale[i] = rescale(d, a.scale[i])
		}
	}
}

// refSumTable is A[i,r,k] = (Σ_s out[s]·V[s][k]) · (Σ_t V⁻¹[k][t]·down[t]).
func (e *Engine) refSumTable(lo, hi int) {
	ov, oscale, dv, dscale, st := e.sumSides()
	down := func(i, o, k int) float64 { return dot(e.specInv[k][:], dv[o:]) }
	if st != nil { // a tip: Σ_t V⁻¹[k][t] over its state set
		down = func(i, o, k int) float64 { return e.tipInv[int(st[i])*NumStates+k] }
	}
	for i := lo; i < hi; i++ {
		for r := 0; r < e.nCat; r++ {
			o := i*e.stride + r*NumStates
			for k := 0; k < NumStates; k++ {
				e.sumTab[o+k] = dot(ov[o:], []float64{e.specV[0][k], e.specV[1][k], e.specV[2][k], e.specV[3][k]}) * down(i, o, k)
			}
		}
		e.sumScale[i] = 0 + at(dscale, i) + oscale[i]
	}
}

// refLikes is pattern i's likelihood at each of the n first diagonals.
func (e *Engine) refLikes(i, n int) (l [3]float64) {
	for r := 0; r < e.nCat; r++ {
		for m := 0; m < n; m++ {
			l[m] += dot(e.sumTab[i*e.stride+r*NumStates:], e.ntA.ex[r*expRow+m*NumStates:])
		}
	}
	return l
}

// refNewton stores w·g and w·(l₂/l₀ − g²), g = l₁/l₀, or zeros where l₀ ≤ 0.
func (e *Engine) refNewton(lo, hi int) {
	for i := lo; i < hi; i++ {
		l, t := e.refLikes(i, 3), e.termBuf[2*i:2*i+2]
		t[0], t[1] = 0, 0
		if w, inv := e.Data.Weights[i], 1/l[0]; !(l[0] <= 0) {
			g := l[1] * inv
			t[0], t[1] = float64(w*g), float64(w*(float64(l[2]*inv)-float64(g*g)))
		}
	}
}

// refAccept stores w·(ln l + scale) at both lengths, l raised to the least float.
func (e *Engine) refAccept(lo, hi int) {
	for i := lo; i < hi; i++ {
		for m, l := 0, e.refLikes(i, 2); m < 2; m++ {
			e.termBuf[2*i+m] = float64(e.Data.Weights[i] * (ln(max(l[m], math.SmallestNonzeroFloat64)) + e.sumScale[i]))
		}
	}
}
