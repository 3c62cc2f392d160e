package flight

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	counts, total := h.Cumulative()
	// 0.5 and 1 land in le=1 (bounds are inclusive upper edges), 1.5 in le=2,
	// 3 in le=4, 100 overflows.
	want := []uint64{2, 3, 4}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", got)
	}
	if got := h.Mean(); math.Abs(got-21.2) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty quantile = %v, want 0", h.Quantile(0.5))
	}
	if h.Mean() != 0 {
		t.Errorf("empty mean = %v", h.Mean())
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Errorf("NaN observation counted: %d", h.Count())
	}
	h.Observe(1.5)
	// Single sample: every quantile falls in its bucket (1, 2].
	for _, p := range []float64{0, 0.5, 1} {
		q := h.Quantile(p)
		if q < 1 || q > 2 {
			t.Errorf("single-sample Quantile(%v) = %v, outside its bucket", p, q)
		}
	}
	// p is clamped.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Errorf("Quantile(-1) = %v, want clamp to Quantile(0)", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("Quantile(2) = %v, want clamp to Quantile(1)", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	// 10 observations in (10, 20]: the median rank sits mid-bucket.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	if got := h.Quantile(0.5); math.Abs(got-15) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 15 (mid-bucket interpolation)", got)
	}
	if got := h.Quantile(1); got != 20 {
		t.Errorf("Quantile(1) = %v, want bucket upper bound 20", got)
	}
}

func TestHistogramOverflowQuantileClamps(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(50)
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to last bound 1", got)
	}
}

func TestHistogramInvalidBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramObserveSeconds(t *testing.T) {
	h := NewHistogram([]float64{0.001, 1})
	h.ObserveSeconds(500_000) // 0.5 ms
	counts, _ := h.Cumulative()
	if counts[0] != 1 {
		t.Errorf("0.5ms not in the 1ms bucket: %v", counts)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.004)
	}); n != 0 {
		t.Fatalf("Observe allocates %v allocs/op, want 0", n)
	}
}
