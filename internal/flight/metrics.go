package flight

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a small Prometheus-text-format metrics registry: counters,
// gauges (as read functions), and fixed-bucket Histograms. It exists so the
// job server can expose GET /metrics without a client-library dependency,
// and so the SAME histogram instances can back both the Prometheus surface
// and the JSON percentiles in /v1/metrics — the two can never drift apart.
//
// Metric and label names must match Prometheus conventions
// ([a-zA-Z_:][a-zA-Z0-9_:]*); the registry panics on registration errors
// (they are programming mistakes, caught by the first test run).
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string
	help string
	kind metricKind

	// counter families: one series per label value, kept sorted by label
	// value at write time for stable output.
	labelKey string
	mu       sync.Mutex
	series   map[string]*Counter
	read     func() float64 // gauge/counter callback form (single series)

	hist *Histogram
}

// Counter is a monotonically increasing counter series.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v (v must be >= 0; negative deltas are
// ignored to keep the series monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(m *metric) *metric {
	if !validMetricName(m.name) {
		panic(fmt.Sprintf("flight: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("flight: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// CounterVec is a family of counter series keyed by one label.
type CounterVec struct{ m *metric }

// NewCounterVec registers a counter family with one label dimension.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	if !validMetricName(label) {
		panic(fmt.Sprintf("flight: invalid label name %q", label))
	}
	m := r.register(&metric{name: name, help: help, kind: kindCounter,
		labelKey: label, series: map[string]*Counter{}})
	return &CounterVec{m: m}
}

// With returns the counter for the given label value, creating it on first
// use. Not for hot paths — it takes a lock and may allocate.
func (v *CounterVec) With(value string) *Counter {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	c, ok := v.m.series[value]
	if !ok {
		c = &Counter{}
		v.m.series[value] = c
	}
	return c
}

// Values returns every series' count by label value, without creating any.
// It is how a JSON surface quotes the counters Prometheus scrapes instead of
// keeping its own.
func (v *CounterVec) Values() map[string]float64 {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	out := make(map[string]float64, len(v.m.series))
	for value, c := range v.m.series {
		out[value] = c.Value()
	}
	return out
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, read func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, read: read})
}

// NewCounterFunc registers a counter whose cumulative value is read at
// scrape time (for totals another subsystem already maintains).
func (r *Registry) NewCounterFunc(name, help string, read func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, read: read})
}

// NewHistogram registers a histogram with the given upper bucket bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// Histogram returns a registered histogram by name (nil if absent or not a
// histogram) — the bridge the JSON metrics surface uses to quote the same
// percentiles Prometheus sees.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[name]
	if m == nil {
		return nil
	}
	return m.hist
}

// WriteText writes every registered metric in the Prometheus text exposition
// format (version 0.0.4), in registration order with label values sorted.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	var buf []byte
	for _, m := range metrics {
		buf = append(buf, "# HELP "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(m.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, m.name...)
		switch m.kind {
		case kindCounter:
			buf = append(buf, " counter\n"...)
		case kindGauge:
			buf = append(buf, " gauge\n"...)
		case kindHistogram:
			buf = append(buf, " histogram\n"...)
		}
		buf = m.appendSamples(buf)
	}
	_, err := w.Write(buf)
	return err
}

func (m *metric) appendSamples(buf []byte) []byte {
	switch {
	case m.hist != nil:
		counts, total := m.hist.Cumulative()
		for i, bound := range m.hist.Bounds() {
			buf = append(buf, m.name...)
			buf = append(buf, `_bucket{le="`...)
			buf = strconv.AppendFloat(buf, bound, 'g', -1, 64)
			buf = append(buf, `"} `...)
			buf = strconv.AppendUint(buf, counts[i], 10)
			buf = append(buf, '\n')
		}
		buf = append(buf, m.name...)
		buf = append(buf, `_bucket{le="+Inf"} `...)
		buf = strconv.AppendUint(buf, total, 10)
		buf = append(buf, '\n')
		buf = append(buf, m.name...)
		buf = append(buf, "_sum "...)
		buf = appendSample(buf, m.hist.Sum())
		buf = append(buf, '\n')
		buf = append(buf, m.name...)
		buf = append(buf, "_count "...)
		buf = strconv.AppendUint(buf, total, 10)
		buf = append(buf, '\n')

	case m.read != nil:
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = appendSample(buf, m.read())
		buf = append(buf, '\n')

	default:
		m.mu.Lock()
		keys := make([]string, 0, len(m.series))
		for k := range m.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = append(buf, m.name...)
			buf = append(buf, '{')
			buf = append(buf, m.labelKey...)
			buf = append(buf, `="`...)
			buf = append(buf, escapeLabel(k)...)
			buf = append(buf, `"} `...)
			buf = appendSample(buf, m.series[k].Value())
			buf = append(buf, '\n')
		}
		m.mu.Unlock()
	}
	return buf
}

func appendSample(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
