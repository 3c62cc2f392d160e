package phylo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func matricesClose(t *testing.T, a, b Matrix, tol float64, label string) {
	t.Helper()
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				t.Fatalf("%s: [%d][%d] = %v vs %v", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestJC69TransitionProperties(t *testing.T) {
	m := NewJC69()
	// P(0) is the identity.
	matricesClose(t, m.Transition(0), Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}, 1e-12, "P(0)")
	// Rows sum to one and entries stay in [0,1] for a range of t.
	for _, bl := range []float64{0.01, 0.1, 0.5, 1, 5} {
		p := m.Transition(bl)
		for i := 0; i < NumStates; i++ {
			var row float64
			for j := 0; j < NumStates; j++ {
				if p[i][j] < 0 || p[i][j] > 1 {
					t.Errorf("P(%v)[%d][%d] = %v out of range", bl, i, j, p[i][j])
				}
				row += p[i][j]
			}
			if math.Abs(row-1) > 1e-12 {
				t.Errorf("P(%v) row %d sums to %v", bl, i, row)
			}
		}
	}
	// P(inf) converges to the stationary distribution.
	p := m.Transition(100)
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			if math.Abs(p[i][j]-0.25) > 1e-9 {
				t.Errorf("P(100)[%d][%d] = %v, want 0.25", i, j, p[i][j])
			}
		}
	}
}

func TestJC69ExpectedSubstitutionScaling(t *testing.T) {
	// At branch length t, the probability of observing a difference is
	// 3/4 (1 - exp(-4t/3)); for small t this is approximately t.
	m := NewJC69()
	p := m.Transition(0.01)
	diff := 1 - p[0][0]
	if math.Abs(diff-0.00993) > 2e-4 {
		t.Errorf("P(change | t=0.01) = %v, want ~0.00993", diff)
	}
}

func TestGTRReducesToJC69(t *testing.T) {
	g, err := NewGTR([6]float64{1, 1, 1, 1, 1, 1}, UniformFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	jc := NewJC69()
	for _, bl := range []float64{0.0, 0.05, 0.3, 1.2} {
		matricesClose(t, g.Transition(bl), jc.Transition(bl), 1e-9, "GTR(equal) vs JC69")
	}
}

func TestGTRStationaryAndReversible(t *testing.T) {
	freqs := Frequencies{0.1, 0.2, 0.3, 0.4}
	g, err := NewGTR([6]float64{1.2, 3.1, 0.8, 1.1, 3.6, 1.0}, freqs)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Transition(0.7)
	// Rows sum to one.
	for i := 0; i < NumStates; i++ {
		var row float64
		for j := 0; j < NumStates; j++ {
			row += p[i][j]
		}
		if math.Abs(row-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, row)
		}
	}
	// pi_i P_ij = pi_j P_ji (detailed balance for reversible models).
	f := g.Frequencies()
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			if math.Abs(f[i]*p[i][j]-f[j]*p[j][i]) > 1e-9 {
				t.Errorf("detailed balance violated at (%d,%d)", i, j)
			}
		}
	}
	// Stationarity: pi P = pi.
	for j := 0; j < NumStates; j++ {
		var v float64
		for i := 0; i < NumStates; i++ {
			v += f[i] * p[i][j]
		}
		if math.Abs(v-f[j]) > 1e-9 {
			t.Errorf("stationarity violated at state %d: %v vs %v", j, v, f[j])
		}
	}
}

func TestGTRChapmanKolmogorov(t *testing.T) {
	// P(a+b) = P(a) P(b) for a Markov process.
	g, err := NewGTR([6]float64{2, 4, 1, 1.5, 5, 1}, Frequencies{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := 0.13, 0.41
	pa, pb, pab := g.Transition(a), g.Transition(b), g.Transition(a+b)
	var prod Matrix
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			for k := 0; k < NumStates; k++ {
				prod[i][j] += pa[i][k] * pb[k][j]
			}
		}
	}
	matricesClose(t, prod, pab, 1e-9, "Chapman-Kolmogorov")
}

func TestHKY85TransitionBias(t *testing.T) {
	h, err := NewHKY85(4.0, UniformFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	p := h.Transition(0.2)
	// Transitions (A<->G, C<->T) must be more likely than transversions.
	if p[StateA][StateG] <= p[StateA][StateC] || p[StateC][StateT] <= p[StateC][StateG] {
		t.Errorf("kappa=4 should favour transitions: A->G %v vs A->C %v", p[StateA][StateG], p[StateA][StateC])
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewGTR([6]float64{1, 1, 0, 1, 1, 1}, UniformFrequencies()); err == nil {
		t.Errorf("zero exchange rate should be rejected")
	}
	if _, err := NewGTR([6]float64{1, 1, 1, 1, 1, 1}, Frequencies{0.5, 0.5, 0, 0}); err == nil {
		t.Errorf("zero frequency should be rejected")
	}
	if _, err := NewHKY85(0, UniformFrequencies()); err == nil {
		t.Errorf("non-positive kappa should be rejected")
	}
}

// TestSpectrumReconstructsTransition holds both models' Spectrum to the two
// identities the sum table rests on: V·V⁻¹ = I and
// V·diag(exp(eigen·t))·V⁻¹ = Transition(t).
func TestSpectrumReconstructsTransition(t *testing.T) {
	g, err := NewGTR([6]float64{1.5, 3, 0.7, 1.2, 4, 1}, Frequencies{0.28, 0.22, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{NewJC69(), g} {
		eigen, v, vInv := m.Spectrum()
		rebuild := func(bl float64) (p Matrix) {
			for i := 0; i < NumStates; i++ {
				for j := 0; j < NumStates; j++ {
					for k := 0; k < NumStates; k++ {
						p[i][j] += v[i][k] * math.Exp(eigen[k]*bl) * vInv[k][j]
					}
				}
			}
			return p
		}
		identity := Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
		matricesClose(t, rebuild(0), identity, 1e-12, m.Name()+" V·V⁻¹")
		for _, bl := range []float64{MinBranchLength, 0.05, 0.3, 1.0, MaxBranchLength} {
			matricesClose(t, rebuild(bl), m.Transition(bl), 1e-12, fmt.Sprintf("%s spectrum at t=%g", m.Name(), bl))
		}
	}
}

func TestPropertyTransitionRowsAreDistributions(t *testing.T) {
	g, err := NewGTR([6]float64{1.3, 2.2, 0.9, 1.4, 3.3, 1}, Frequencies{0.27, 0.23, 0.21, 0.29})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		bl := float64(raw) / 65535.0 * 5
		p := g.Transition(bl)
		for i := 0; i < NumStates; i++ {
			var row float64
			for j := 0; j < NumStates; j++ {
				if p[i][j] < -1e-12 || p[i][j] > 1+1e-12 {
					return false
				}
				row += p[i][j]
			}
			if math.Abs(row-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiscreteGammaProperties(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.5, 1.0, 2.0, 10.0} {
		rc, err := DiscreteGamma(alpha, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Count() != 4 {
			t.Fatalf("alpha=%v: %d categories", alpha, rc.Count())
		}
		var mean float64
		prev := -1.0
		for _, r := range rc.Rates {
			if r < 0 {
				t.Errorf("alpha=%v: negative rate %v", alpha, r)
			}
			if r < prev {
				t.Errorf("alpha=%v: rates not sorted: %v", alpha, rc.Rates)
			}
			prev = r
			mean += r
		}
		mean /= float64(rc.Count())
		if math.Abs(mean-1) > 1e-6 {
			t.Errorf("alpha=%v: mean rate %v, want 1", alpha, mean)
		}
	}
}

func TestDiscreteGammaKnownValues(t *testing.T) {
	// Yang (1994) Table: alpha = 0.5 with 4 categories gives rates
	// approximately (0.033, 0.252, 0.820, 2.895).
	rc, err := DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.0334, 0.2519, 0.8203, 2.8944}
	for i, w := range want {
		if math.Abs(rc.Rates[i]-w) > 0.02 {
			t.Errorf("rate[%d] = %v, want ~%v", i, rc.Rates[i], w)
		}
	}
}

func TestDiscreteGammaSpreadShrinksWithAlpha(t *testing.T) {
	low, _ := DiscreteGamma(0.5, 4)
	high, _ := DiscreteGamma(20, 4)
	spreadLow := low.Rates[3] - low.Rates[0]
	spreadHigh := high.Rates[3] - high.Rates[0]
	if spreadHigh >= spreadLow {
		t.Errorf("rate spread should shrink as alpha grows: %v vs %v", spreadHigh, spreadLow)
	}
}

func TestDiscreteGammaEdgeCases(t *testing.T) {
	if _, err := DiscreteGamma(0, 4); err == nil {
		t.Errorf("alpha = 0 should be rejected")
	}
	if _, err := DiscreteGamma(1, 0); err == nil {
		t.Errorf("zero categories should be rejected")
	}
	rc, err := DiscreteGamma(1.0, 1)
	if err != nil || rc.Count() != 1 || rc.Rates[0] != 1 {
		t.Errorf("single category should degenerate to rate 1, got %v (%v)", rc, err)
	}
}

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		got := regularizedGammaP(1, x)
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	if regularizedGammaP(2, 0) != 0 {
		t.Errorf("P(a, 0) should be 0")
	}
	// Median of Gamma(shape=rate=1) is ln 2.
	if q := gammaQuantile(0.5, 1, 1); math.Abs(q-math.Ln2) > 1e-6 {
		t.Errorf("median of Exp(1) = %v, want ln 2", q)
	}
}

func TestFrequenciesNormalize(t *testing.T) {
	f := Frequencies{2, 2, 2, 2}
	f.Normalize()
	for _, v := range f {
		if v != 0.25 {
			t.Errorf("normalize: %v", f)
		}
	}
	z := Frequencies{}
	z.Normalize()
	if z != UniformFrequencies() {
		t.Errorf("zero frequencies should fall back to uniform, got %v", z)
	}
}
