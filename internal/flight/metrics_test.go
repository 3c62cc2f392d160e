package flight

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("cellmg_requests_total", "Total requests.", "code").With("200")
	c.Inc()
	c.Add(2)
	vec := r.NewCounterVec("cellmg_jobs_total", "Jobs per tenant.", "tenant")
	vec.With("bob").Add(1)
	vec.With("alice").Add(4)
	r.NewGaugeFunc("cellmg_queue_depth", "Current queue depth.", func() float64 { return 7 })
	h := r.NewHistogram("cellmg_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // overflow bucket

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cellmg_requests_total Total requests.
# TYPE cellmg_requests_total counter
cellmg_requests_total{code="200"} 3
# HELP cellmg_jobs_total Jobs per tenant.
# TYPE cellmg_jobs_total counter
cellmg_jobs_total{tenant="alice"} 4
cellmg_jobs_total{tenant="bob"} 1
# HELP cellmg_queue_depth Current queue depth.
# TYPE cellmg_queue_depth gauge
cellmg_queue_depth 7
# HELP cellmg_latency_seconds Latency.
# TYPE cellmg_latency_seconds histogram
cellmg_latency_seconds_bucket{le="0.1"} 1
cellmg_latency_seconds_bucket{le="1"} 2
cellmg_latency_seconds_bucket{le="10"} 2
cellmg_latency_seconds_bucket{le="+Inf"} 3
cellmg_latency_seconds_sum 99.55
cellmg_latency_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Fatalf("text exposition drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Values reads the series the exposition shows.
	if got := vec.Values(); len(got) != 2 || got["alice"] != 4 || got["bob"] != 1 {
		t.Errorf("Values() = %v, want alice 4, bob 1", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("dup_total", "", "k")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounterVec("dup_total", "", "k")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.NewCounterVec("9starts-with-digit", "", "k")
}

func TestRegistryHistogramBridge(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cellmg_x_seconds", "", []float64{1, 2})
	if got := r.Histogram("cellmg_x_seconds"); got != h {
		t.Fatal("Histogram() did not return the registered instance")
	}
	if got := r.Histogram("missing"); got != nil {
		t.Fatal("Histogram() invented a metric")
	}
	r.NewCounterVec("cellmg_c_total", "", "k")
	if got := r.Histogram("cellmg_c_total"); got != nil {
		t.Fatal("Histogram() returned a non-histogram metric")
	}
}

func TestCounterNegativeAddIgnored(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("mono_total", "", "k").With("v")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v after negative add, want 5", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	vec := r.NewCounterVec("esc_total", "", "tenant")
	vec.With(`we"ird\name`).Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `esc_total{tenant="we\"ird\\name"} 1`) {
		t.Fatalf("label not escaped: %s", buf.String())
	}
}
