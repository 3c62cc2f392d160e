package phylo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// lnDigest is the FNV-64a digest of ln's output bits over lnInputs, written
// on amd64, where every one of those outputs equals math.Log's.
const lnDigest = "71a4e04f97eb9ff5"

// lnInputs is a fixed stream of 2^20 inputs: the edges first — zeros,
// infinities, NaN, the smallest subnormal and 1e-310, one ulp either side of
// √2/2 (the reduction's boundary) and of 1, MaxFloat64 — then, in turn, raw
// 64-bit patterns (negatives, NaNs and infinities among them), subnormals,
// uniform [0, 1) values and mantissas in [0.5, 1), the reduced range.
func lnInputs() []float64 {
	const hSqrt2 = 7.07106781186547524401e-01
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1,
		math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		hSqrt2, math.Nextafter(hSqrt2, 0), math.Nextafter(hSqrt2, 1), 2 * hSqrt2, math.Nextafter(2*hSqrt2, 0)}
	rng := rand.New(rand.NewSource(1))
	for i := len(xs); i < 1<<20; i++ {
		u := rng.Uint64()
		switch i % 4 {
		case 1:
			u &= 1<<52 - 1
		case 2:
			u = math.Float64bits(rng.Float64())
		case 3:
			u = u&(1<<52-1) | 0x3FE0000000000000
		}
		xs = append(xs, math.Float64frombits(u))
	}
	return xs
}

// TestLogMatchesMathLog holds ln to math/log_amd64.s, which it copies: on
// amd64 it equals math.Log bit for bit on every input of lnInputs, and on
// every architecture its outputs hash to the digest committed from amd64.
// Both results of ln2 equal ln's bit for bit: over lnInputs paired with the
// stream reversed, so every input sits once in each position, and with each
// special input on either side of an ordinary value.
func TestLogMatchesMathLog(t *testing.T) {
	xs := lnInputs()
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ln(x)
		if runtime.GOARCH == "amd64" && math.Float64bits(out[i]) != math.Float64bits(math.Log(x)) {
			t.Errorf("ln(%v) = %v (%#x), math.Log %v", x, out[i], math.Float64bits(x), math.Log(x))
		}
	}
	pair := func(x, y, lx, ly float64) {
		if a, b := ln2(x, y); math.Float64bits(a) != math.Float64bits(lx) || math.Float64bits(b) != math.Float64bits(ly) {
			t.Errorf("ln2(%v, %v) = (%v, %v), ln gives (%v, %v)", x, y, a, b, lx, ly)
		}
	}
	for i, j := 0, len(xs)-1; j >= 0; i, j = i+1, j-1 {
		pair(xs[i], xs[j], out[i], out[j])
	}
	for _, s := range []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64} {
		pair(s, 0.3, ln(s), ln(0.3))
		pair(0.3, s, ln(0.3), ln(s))
	}
	if got := digest(out); got != lnDigest {
		t.Errorf("ln's outputs hash to %s on %s, want %s (amd64)", got, runtime.GOARCH, lnDigest)
	}
	if got := ln(math.SmallestNonzeroFloat64); math.Abs(got+709.0896) > 1e-4 {
		t.Errorf("ln(SmallestNonzeroFloat64) = %v, want −709.09 as on amd64", got)
	}
}
