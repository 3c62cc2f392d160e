package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quick returns the fast configuration used throughout the tests.
func quick() Config { return Config{Quick: true} }

func checkReport(t *testing.T, r Report) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Errorf("report missing identity: %+v", r)
	}
	for _, c := range r.Claims {
		if !c.Pass {
			t.Errorf("%s: claim failed: %s", r.ID, c)
		}
	}
	if len(r.Tables) == 0 {
		t.Errorf("%s: no tables produced", r.ID)
	}
	txt := r.String()
	if !strings.Contains(txt, r.ID) {
		t.Errorf("%s: String() should mention the experiment ID", r.ID)
	}
}

func TestSPEOptimizationReport(t *testing.T) {
	r := SPEOptimization(quick())
	checkReport(t, r)
	if !r.Passed() {
		t.Errorf("E1 did not pass all claims")
	}
}

func TestTable1Report(t *testing.T) {
	r := Table1(quick())
	checkReport(t, r)
	if len(r.Series) != 2 {
		t.Errorf("Table 1 should produce EDTLP and Linux series")
	}
}

func TestTable2Report(t *testing.T) {
	r := Table2(quick())
	checkReport(t, r)
}

func TestFigure7Report(t *testing.T) {
	r := Figure7(quick())
	checkReport(t, r)
	if len(r.Tables) != 2 {
		t.Errorf("Figure 7 should produce (a) and (b) tables, got %d", len(r.Tables))
	}
}

func TestFigure8Report(t *testing.T) {
	r := Figure8(quick())
	checkReport(t, r)
}

func TestFigure9Report(t *testing.T) {
	r := Figure9(quick())
	checkReport(t, r)
}

func TestFigure10Report(t *testing.T) {
	r := Figure10(quick())
	checkReport(t, r)
	if len(r.Series) != 3 {
		t.Errorf("Figure 10 should produce Cell, Xeon and Power5 series")
	}
}

// Figure 10 draws one panel over both sweeps, which share their boundary
// count; each count must be one table row and one point of each series.
func TestFigure10CountsStrictlyIncrease(t *testing.T) {
	for _, cfg := range []Config{{Quick: true}, {}} {
		r := Figure10(cfg)
		for _, s := range r.Series {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].X <= s.Points[i-1].X {
					t.Errorf("quick=%v: series %s has %g after %g", cfg.Quick, s.Name, s.Points[i].X, s.Points[i-1].X)
				}
			}
		}
		rows := r.Tables[0].Rows
		for i := 1; i < len(rows); i++ {
			prev, _ := strconv.Atoi(rows[i-1][0])
			if cur, _ := strconv.Atoi(rows[i][0]); cur <= prev {
				t.Errorf("quick=%v: table row %d bootstraps after %d", cfg.Quick, cur, prev)
			}
		}
	}
}

func TestNativeCalibrationReport(t *testing.T) {
	r := NativeCalibration(quick())
	checkReport(t, r)
	if !r.Passed() {
		t.Errorf("E11 did not pass all claims")
	}
	if len(r.Tables) != 2 {
		t.Errorf("E11 should produce a kernel table and a scheduler table, got %d", len(r.Tables))
	}
}

func TestAblationReports(t *testing.T) {
	for _, r := range []Report{
		AblationSwitchCostQuantum(quick()),
		AblationMGPSWindow(quick()),
		AblationScaleInvariance(quick()),
	} {
		checkReport(t, r)
	}
}

func TestAllRunsEveryExperimentOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run skipped in -short mode")
	}
	if len(Experiments) != 11 {
		t.Fatalf("Experiments lists %d entries, want 11", len(Experiments))
	}
	ids := map[string]bool{}
	for i, e := range Experiments {
		r := e.Run(quick())
		if want := fmt.Sprintf("E%d", i+1); e.ID != want || r.ID != want {
			t.Errorf("entry %d: listed as %s, reports as %s, want %s", i, e.ID, r.ID, want)
		}
		if ids[r.ID] {
			t.Errorf("duplicate report ID %s", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	wl := cfg.effectiveWorkload()
	if wl.Name != "raxml-42SC" {
		t.Errorf("default workload = %q", wl.Name)
	}
	quickWL := Config{Quick: true}.effectiveWorkload()
	if quickWL.CallsPerBootstrap >= wl.CallsPerBootstrap {
		t.Errorf("quick mode should reduce off-load counts (%d vs %d)",
			quickWL.CallsPerBootstrap, wl.CallsPerBootstrap)
	}
	if len(Config{Quick: true}.sweepLarge()) >= len(Config{}.sweepLarge()) {
		t.Errorf("quick mode should trim the large sweep")
	}
}

func TestClaimFormatting(t *testing.T) {
	c := claim("it works", true, "value %d", 42)
	if !strings.Contains(c.String(), "PASS") || !strings.Contains(c.String(), "value 42") {
		t.Errorf("claim string = %q", c.String())
	}
	f := claim("it fails", false, "no")
	if !strings.Contains(f.String(), "FAIL") {
		t.Errorf("claim string = %q", f.String())
	}
	r := Report{ID: "X", Title: "t", Claims: []Claim{c, f}}
	if r.Passed() {
		t.Errorf("report with a failing claim should not pass")
	}
}
