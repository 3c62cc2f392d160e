// Package experiments defines one reproduction harness per table and figure
// of the paper's evaluation (Section 5), plus three ablations and a
// calibration against this host's kernels. Each experiment runs the scheduler
// models from package sched on the RAxML 42_SC workload model (Figure 10 adds
// calibrated models of its two comparison machines), formats its results in
// the same layout as the paper, and checks the paper's qualitative claims,
// reporting each as a pass/fail Claim.
//
// The cmd/experiments binary runs everything and prints the reports; this
// package's tests assert every claim, and the benchmark's sim_sweep workload
// (bench/) times the simulator underneath.
package experiments

import (
	"fmt"
	"strings"

	"cellmg/internal/stats"
	"cellmg/internal/workload"
)

// Config controls how heavy the reproduction runs are.
type Config struct {
	// Quick trims the number of off-loads per bootstrap and the sweep points
	// so the whole suite runs in a fraction of the full configuration's time.
	Quick bool
}

// effectiveWorkload returns the 42_SC workload to simulate, applying the
// Quick scaling if requested.
func (c Config) effectiveWorkload() *workload.Config {
	cfg := workload.RAxML42SC()
	if c.Quick && cfg.CallsPerBootstrap > 150 {
		cfg.CallsPerBootstrap = 150
	}
	return cfg
}

// sweepSmall returns the bootstrap counts for the "(a) 1-16" panels.
func (c Config) sweepSmall() []int {
	if c.Quick {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4, 6, 8, 10, 12, 16}
}

// sweepLarge returns the bootstrap counts for the "(b) 1-128" panels.
func (c Config) sweepLarge() []int {
	if c.Quick {
		return []int{16, 32, 64}
	}
	return []int{16, 32, 48, 64, 96, 128}
}

// Claim is one qualitative statement from the paper checked against the
// reproduction.
type Claim struct {
	Description string
	Pass        bool
	Detail      string
}

func (c Claim) String() string {
	mark := "PASS"
	if !c.Pass {
		mark = "FAIL"
	}
	return fmt.Sprintf("[%s] %s (%s)", mark, c.Description, c.Detail)
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Series []*stats.Series
	Claims []Claim
	Notes  []string
}

// Passed reports whether every claim passed.
func (r Report) Passed() bool {
	for _, c := range r.Claims {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the report as plain text.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %s:", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " (%g, %.1f)", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	if len(r.Series) > 0 {
		b.WriteString("\n")
	}
	for _, c := range r.Claims {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// claim is a small helper for building Claims.
func claim(desc string, pass bool, detailFormat string, args ...any) Claim {
	return Claim{Description: desc, Pass: pass, Detail: fmt.Sprintf(detailFormat, args...)}
}

// Experiment is one entry of the suite: its report ID and the function that
// runs it.
type Experiment struct {
	ID  string
	Run func(Config) Report
}

// Experiments is the suite in report order, E1 to E11.
var Experiments = []Experiment{
	{"E1", SPEOptimization},
	{"E2", Table1},
	{"E3", Table2},
	{"E4", Figure7},
	{"E5", Figure8},
	{"E6", Figure9},
	{"E7", Figure10},
	{"E8", AblationSwitchCostQuantum},
	{"E9", AblationMGPSWindow},
	{"E10", AblationScaleInvariance},
	{"E11", NativeCalibration},
}
