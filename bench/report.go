package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"cellmg/internal/stats"
)

// benchSpec is BENCHMARK.json: the one list of metric names, units,
// directions and bounds. The program reads it at run time, so what a run
// emits and what the file promises cannot drift apart.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: missing end_to_end, per_layer or run_seconds", path)
	}
	return &s, nil
}

// metricValue is one reported metric. Timings that are a quantile of several
// samples carry the sample count and quartiles beside the value.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
}

// report is the full record of one run: what out/report-*.json holds and
// what a run-set file is an array of.
type report struct {
	Env       env                    `json:"env"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     string                 `json:"scale"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]float64     `json:"extra,omitempty"`
}

// resultLine is the last line of standard output: exactly the four keys the
// driver reads, each metric as {value, unit}.
func (r *report) resultLine() map[string]any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]vu, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = vu{v.Value, v.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   m,
	}
}

func (r *report) write(cfg config, appendPath string) error {
	kind := "e2e"
	if cfg.trace {
		kind = "layers"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "report-"+cfg.workload+"-"+kind+".json"), r); err != nil {
		return err
	}
	if appendPath == "" {
		return nil
	}
	set, err := readSet(appendPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return writeJSON(appendPath, append(set, *r))
}

func readSet(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []report
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, and 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
