package phylo

import (
	"fmt"
	"math"
)

// NumStates is the size of the nucleotide alphabet.
const NumStates = 4

// Nucleotide state indices.
const (
	StateA = iota
	StateC
	StateG
	StateT
)

// Frequencies is a stationary base-frequency vector (A, C, G, T).
type Frequencies [NumStates]float64

// Uniform returns equal base frequencies.
func UniformFrequencies() Frequencies { return Frequencies{0.25, 0.25, 0.25, 0.25} }

// Normalize scales the frequencies to sum to one.
func (f *Frequencies) Normalize() {
	var sum float64
	for _, v := range f {
		sum += v
	}
	if sum <= 0 {
		*f = UniformFrequencies()
		return
	}
	for i := range f {
		f[i] /= sum
	}
}

// Matrix is a dense 4x4 matrix indexed [from][to].
type Matrix [NumStates][NumStates]float64

// Model is a reversible nucleotide substitution model. Transition returns the
// probability matrix P(t) = exp(Qt) for branch length t (expected
// substitutions per site). Spectrum returns the decomposition behind it,
// P(t) = V·diag(exp(eigen·t))·V⁻¹: Makenewz folds the conditional vectors at
// the two ends of a branch into that eigenbasis once, after which the
// likelihood and its derivatives in t are sums against exp(eigen_k·t).
type Model interface {
	Name() string
	Frequencies() Frequencies
	Transition(t float64) Matrix
	Spectrum() (eigen [NumStates]float64, v, vInv Matrix)
}

// --- Jukes-Cantor (JC69) ---

// JC69 is the Jukes-Cantor model: equal frequencies and equal exchange rates.
// Its transition probabilities have a closed form, making it both a fast
// default and a reference for testing the eigendecomposition path.
type JC69 struct{}

// NewJC69 returns the Jukes-Cantor model.
func NewJC69() JC69 { return JC69{} }

func (JC69) Name() string { return "JC69" }

func (JC69) Frequencies() Frequencies { return UniformFrequencies() }

// Transition returns the closed-form JC69 probabilities. The rate matrix is
// scaled so that t is the expected number of substitutions per site.
func (JC69) Transition(t float64) Matrix {
	if t < 0 {
		t = 0
	}
	e := math.Exp(-4.0 / 3.0 * t)
	same := 0.25 + 0.75*e
	diff := 0.25 - 0.25*e
	var m Matrix
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			if i == j {
				m[i][j] = same
			} else {
				m[i][j] = diff
			}
		}
	}
	return m
}

// Spectrum returns JC69's eigenvalues {0, -4/3, -4/3, -4/3} with the ±½
// Hadamard basis, which is its own inverse and exact in binary.
func (JC69) Spectrum() (eigen [NumStates]float64, v, vInv Matrix) {
	const h = 0.5
	v = Matrix{{h, h, h, h}, {h, -h, h, -h}, {h, h, -h, -h}, {h, -h, -h, h}}
	return [NumStates]float64{0, -4.0 / 3.0, -4.0 / 3.0, -4.0 / 3.0}, v, v
}

// --- General time-reversible (GTR) family via eigendecomposition ---

// GTR is the general time-reversible model parameterized by six exchange
// rates (AC, AG, AT, CG, CT, GT) and four base frequencies. HKY85 and JC69
// are special cases. The transition probabilities are computed from an
// eigendecomposition of the symmetrized rate matrix; the decomposition is
// done once at construction.
type GTR struct {
	name  string
	freqs Frequencies
	rates [6]float64 // AC, AG, AT, CG, CT, GT

	// Eigendecomposition of Q: Q = V diag(eigen) V^-1.
	eigen [NumStates]float64
	v     Matrix
	vInv  Matrix
}

// NewGTR builds a GTR model from exchange rates (AC, AG, AT, CG, CT, GT) and
// base frequencies. The rate matrix is normalized so branch lengths are in
// expected substitutions per site.
func NewGTR(rates [6]float64, freqs Frequencies) (*GTR, error) {
	return newGTRNamed("GTR", rates, freqs)
}

// NewHKY85 builds the Hasegawa-Kishino-Yano model with
// transition/transversion ratio kappa and the given base frequencies.
func NewHKY85(kappa float64, freqs Frequencies) (*GTR, error) {
	if kappa <= 0 {
		return nil, fmt.Errorf("phylo: HKY85 kappa must be positive, got %v", kappa)
	}
	// Transitions: A<->G and C<->T.
	return newGTRNamed("HKY85", [6]float64{1, kappa, 1, 1, kappa, 1}, freqs)
}

func newGTRNamed(name string, rates [6]float64, freqs Frequencies) (*GTR, error) {
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("phylo: GTR exchange rate %d must be positive, got %v", i, r)
		}
	}
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("phylo: GTR base frequencies must be positive, got %v", freqs)
		}
	}
	freqs.Normalize()
	g := &GTR{name: name, freqs: freqs, rates: rates}
	if err := g.decompose(); err != nil {
		return nil, err
	}
	return g, nil
}

// rateMatrix builds the unnormalized instantaneous rate matrix Q.
func (g *GTR) rateMatrix() Matrix {
	r := g.rates
	f := g.freqs
	var q Matrix
	// Upper triangle exchangeabilities.
	ex := [NumStates][NumStates]float64{}
	ex[StateA][StateC], ex[StateA][StateG], ex[StateA][StateT] = r[0], r[1], r[2]
	ex[StateC][StateG], ex[StateC][StateT] = r[3], r[4]
	ex[StateG][StateT] = r[5]
	for i := 0; i < NumStates; i++ {
		for j := i + 1; j < NumStates; j++ {
			ex[j][i] = ex[i][j]
		}
	}
	for i := 0; i < NumStates; i++ {
		var rowSum float64
		for j := 0; j < NumStates; j++ {
			if i == j {
				continue
			}
			q[i][j] = ex[i][j] * f[j]
			rowSum += q[i][j]
		}
		q[i][i] = -rowSum
	}
	// Normalize so that the expected substitution rate is 1.
	var mu float64
	for i := 0; i < NumStates; i++ {
		mu -= f[i] * q[i][i]
	}
	if mu <= 0 {
		return q
	}
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			q[i][j] /= mu
		}
	}
	return q
}

// decompose computes the eigendecomposition of Q using the reversibility
// trick: with D = diag(sqrt(freq)), the matrix S = D Q D^-1 is symmetric, so
// a Jacobi rotation scheme diagonalizes it; Q's eigenvectors follow.
func (g *GTR) decompose() error {
	q := g.rateMatrix()
	var d, dInv [NumStates]float64
	for i := 0; i < NumStates; i++ {
		d[i] = math.Sqrt(g.freqs[i])
		dInv[i] = 1 / d[i]
	}
	var s Matrix
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			s[i][j] = d[i] * q[i][j] * dInv[j]
		}
	}
	eigenvalues, vectors, err := jacobiEigen(s)
	if err != nil {
		return err
	}
	g.eigen = eigenvalues
	// Q = D^-1 R diag(eigen) R^T D, where R holds the eigenvectors of S.
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			g.v[i][j] = dInv[i] * vectors[i][j]
			g.vInv[j][i] = vectors[i][j] * d[i]
		}
	}
	return nil
}

func (g *GTR) Name() string             { return g.name }
func (g *GTR) Frequencies() Frequencies { return g.freqs }

// ExchangeRates returns the six exchangeabilities (AC, AG, AT, CG, CT, GT)
// the model was built from.
func (g *GTR) ExchangeRates() [6]float64 { return g.rates }

// Transition returns P(t) = V diag(exp(eigen*t)) V^-1.
func (g *GTR) Transition(t float64) (p Matrix) {
	if t < 0 {
		t = 0
	}
	var e [NumStates]float64
	for k := 0; k < NumStates; k++ {
		e[k] = math.Exp(g.eigen[k] * t)
	}
	for i := 0; i < NumStates; i++ {
		for j := 0; j < NumStates; j++ {
			var s float64
			for k := 0; k < NumStates; k++ {
				s += g.v[i][k] * g.vInv[k][j] * e[k]
			}
			p[i][j] = s
		}
	}
	return p
}

// Spectrum returns the decomposition computed at construction.
func (g *GTR) Spectrum() (eigen [NumStates]float64, v, vInv Matrix) {
	return g.eigen, g.v, g.vInv
}

// jacobiEigen diagonalizes a symmetric 4x4 matrix with cyclic Jacobi
// rotations, returning eigenvalues and the matrix of column eigenvectors.
func jacobiEigen(a Matrix) ([NumStates]float64, Matrix, error) {
	var v Matrix
	for i := 0; i < NumStates; i++ {
		v[i][i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < NumStates; i++ {
			for j := i + 1; j < NumStates; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-24 {
			var eig [NumStates]float64
			for i := 0; i < NumStates; i++ {
				eig[i] = a[i][i]
			}
			return eig, v, nil
		}
		for p := 0; p < NumStates; p++ {
			for q := p + 1; q < NumStates; q++ {
				if math.Abs(a[p][q]) < 1e-30 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < NumStates; i++ {
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[i][q] = s*aip + c*aiq
				}
				for i := 0; i < NumStates; i++ {
					api, aqi := a[p][i], a[q][i]
					a[p][i] = c*api - s*aqi
					a[q][i] = s*api + c*aqi
				}
				for i := 0; i < NumStates; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	return [NumStates]float64{}, Matrix{}, fmt.Errorf("phylo: Jacobi eigendecomposition did not converge")
}

// --- Discrete Gamma rate heterogeneity ---

// RateCategories holds the per-category rates and (equal) probabilities of a
// discrete Gamma approximation to among-site rate variation.
type RateCategories struct {
	Rates []float64
}

// Count returns the number of categories.
func (rc RateCategories) Count() int { return len(rc.Rates) }

// SingleRate returns the degenerate single-category model (no heterogeneity).
func SingleRate() RateCategories { return RateCategories{Rates: []float64{1}} }

// DiscreteGamma returns k rate categories for a Gamma(alpha, alpha)
// distribution (mean 1) using the mean-of-quantile discretization of Yang
// (1994): category i covers the probability interval [i/k, (i+1)/k) and its
// rate is the mean of the distribution over that interval.
func DiscreteGamma(alpha float64, k int) (RateCategories, error) {
	if alpha <= 0 {
		return RateCategories{}, fmt.Errorf("phylo: gamma shape must be positive, got %v", alpha)
	}
	if k <= 0 {
		return RateCategories{}, fmt.Errorf("phylo: need at least one rate category, got %d", k)
	}
	if k == 1 {
		return SingleRate(), nil
	}
	rates := make([]float64, k)
	// Cut points between categories: quantiles of Gamma(alpha, alpha).
	cuts := make([]float64, k+1)
	cuts[0] = 0
	cuts[k] = math.Inf(1)
	for i := 1; i < k; i++ {
		cuts[i] = gammaQuantile(float64(i)/float64(k), alpha, alpha)
	}
	// Mean of each slice: using the identity
	// E[X; X < c] = (alpha/beta) * P(Gamma(alpha+1, beta) < c).
	meanTo := func(c float64) float64 {
		if math.IsInf(c, 1) {
			return 1 // full mean of Gamma(alpha, alpha)
		}
		return regularizedGammaP(alpha+1, alpha*c)
	}
	for i := 0; i < k; i++ {
		lo, hi := cuts[i], cuts[i+1]
		rates[i] = float64(k) * (meanTo(hi) - meanTo(lo))
	}
	// Normalize exactly to mean 1 to absorb numerical error.
	var sum float64
	for _, r := range rates {
		sum += r
	}
	for i := range rates {
		rates[i] *= float64(k) / sum
	}
	return RateCategories{Rates: rates}, nil
}

// regularizedGammaP computes P(a, x), the regularized lower incomplete gamma
// function, with the usual series / continued-fraction split.
func regularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1.0 / a
		del := sum
		for n := 0; n < 500; n++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lgamma(a))
	}
	// Continued fraction for Q(a, x) = 1 - P(a, x).
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lgamma(a)) * h
	return 1 - q
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// gammaQuantile inverts the Gamma(shape, rate) CDF by bisection.
func gammaQuantile(p, shape, rate float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// The CDF of Gamma(shape, rate) at x is P(shape, rate*x).
	cdf := func(x float64) float64 { return regularizedGammaP(shape, rate*x) }
	lo, hi := 0.0, 1.0
	for cdf(hi) < p {
		hi *= 2
		if hi > 1e8 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
