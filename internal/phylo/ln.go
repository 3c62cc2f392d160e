package phylo

import "math"

// lnEdge splits the inputs by their bits u: u−1 < lnEdge for every positive
// finite x, subnormals included; ±0 (u = 0 wraps), negatives, +Inf and NaN
// are the rest.
const lnEdge = 0x7FF0000000000000 - 1

// ln is the natural logarithm the likelihood kernels take: math/log_amd64.s
// step for step, in Go, so that every architecture computes the same bits.
// math.Log is that assembly on amd64 and portable Go elsewhere, which the
// compiler may fuse and which normalises subnormals; ln, like the assembly,
// reads a subnormal's exponent field raw (ln(math.SmallestNonzeroFloat64) is
// −709.09, as on amd64), and each product that meets a sum is rounded by an
// explicit conversion, which the Go specification says forbids fusing it.
func ln(x float64) float64 {
	u := math.Float64bits(x)
	switch {
	case u-1 < lnEdge:
		return lnFinite(u)
	case u<<1 == 0:
		return math.Inf(-1)
	case int64(u) < 0:
		return math.NaN()
	}
	return x // +Inf or NaN
}

// ln2 is (ln(x), ln(y)) bit for bit in one call; the two logarithms are
// independent, so their latencies overlap.
func ln2(x, y float64) (float64, float64) {
	u, v := math.Float64bits(x), math.Float64bits(y)
	if u-1 >= lnEdge || v-1 >= lnEdge {
		return ln(x), ln(y)
	}
	return lnFinite(u), lnFinite(v)
}

// lnFinite is ln of the positive finite x of bits u. The assembly takes the
// mantissa f1 in [½, 1) and, when f1 <= √2/2, doubles it and lowers the
// exponent k; the doubling is exact, so picking the exponent field 0x3FF over
// 0x3FE from the mantissa field's bits gives the same f1 and k, by an integer
// select (a CMOV on amd64) instead of a branch on the data.
func lnFinite(u uint64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		l1    = 6.666666666666735130e-01
		l2    = 3.999999999940941908e-01
		l3    = 2.857142874366239149e-01
		l4    = 2.222219843214978396e-01
		l5    = 1.818357216161805012e-01
		l6    = 1.531383769920937332e-01
		l7    = 1.479819860511658591e-01
	)
	m, ex := u&(1<<52-1), uint64(0x3FE)
	if m <= 0x6A09E667F3BCD { // the mantissa field of √2/2
		ex = 0x3FF
	}
	f := math.Float64frombits(m|ex<<52) - 1
	k := float64(int(u>>52) - int(ex))
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
