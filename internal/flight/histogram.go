package flight

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket, lock-free histogram safe for concurrent
// observation. Bucket bounds are upper edges: observation v lands in the
// first bucket whose bound is >= v, and values above the last bound land in
// the implicit +Inf overflow bucket. Observe is allocation-free, so the
// flight-recorder metrics pipeline can feed it from the off-load completion
// path without perturbing what it measures.
type Histogram struct {
	bounds   []float64
	counts   []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	observed atomic.Uint64
	sumBits  atomic.Uint64
}

// NewHistogram creates a histogram with the given upper bucket bounds, which
// must be finite, strictly increasing, and non-empty.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("flight: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("flight: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("flight: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DefaultLatencyBuckets returns bounds suited to the repo's latency scales in
// seconds: 100 µs resolution at the bottom (kernel off-loads run ~0.3–3 ms),
// stretching to a minute for long bootstrap-heavy jobs.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// Observe records one value. NaN observations are ignored (they would poison
// the sum and belong to no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.observed.Add(1)
	for {
		old := h.sumBits.Load()
		newSum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(newSum)) {
			return
		}
	}
}

// ObserveSeconds records a duration expressed in nanoseconds as seconds —
// the unit every latency histogram in the repo uses.
func (h *Histogram) ObserveSeconds(ns int64) {
	h.Observe(float64(ns) / 1e9)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.observed.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the upper bucket bounds (shared; callers must not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative bucket counts aligned with Bounds(),
// plus the total including the +Inf overflow bucket — exactly the shape the
// Prometheus text format wants.
func (h *Histogram) Cumulative() (counts []uint64, total uint64) {
	counts = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	total = cum + h.counts[len(h.bounds)].Load()
	return counts, total
}

// Quantile returns an estimate of the p-quantile (0 <= p <= 1) by linear
// interpolation within the bucket containing the target rank, the same
// estimate Prometheus's histogram_quantile computes. An empty histogram
// yields 0; ranks falling in the +Inf overflow bucket clamp to the last
// finite bound.
func (h *Histogram) Quantile(p float64) float64 {
	counts, total := h.Cumulative()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	for i, cum := range counts {
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = h.bounds[i-1]
			below = counts[i-1]
		}
		inBucket := cum - below
		if inBucket == 0 {
			return h.bounds[i]
		}
		frac := (rank - float64(below)) / float64(inBucket)
		return lower + frac*(h.bounds[i]-lower)
	}
	// Overflow bucket: the best available estimate is the largest finite bound.
	return h.bounds[len(h.bounds)-1]
}
