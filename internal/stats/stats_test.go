package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("Std = %v, want ~2.138 (sample std)", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Min != 3 || s.Max != 3 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesAddSortsAndLookups(t *testing.T) {
	s := &Series{Name: "edtlp"}
	s.Add(8, 43.3)
	s.Add(1, 28.5)
	s.Add(4, 33.1)
	if p := s.Points; p[0].X != 1 || p[1].X != 4 || p[2].X != 8 {
		t.Errorf("Points = %v, want sorted by X", p)
	}
	if ys := s.Ys(); ys[0] != 28.5 || ys[2] != 43.3 {
		t.Errorf("Ys = %v", ys)
	}
	if y, ok := s.Y(4); !ok || y != 33.1 {
		t.Errorf("Y(4) = %v, %v", y, ok)
	}
	if _, ok := s.Y(5); ok {
		t.Errorf("Y(5) should not exist")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(28.8, 28.82) > 0.01 {
		t.Errorf("RelErr too large for nearly equal values")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Errorf("RelErr with zero reference should be +Inf")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1 reproduction", "workers", "EDTLP", "Linux")
	tb.AddRowf(1, 28.46, 28.42)
	tb.AddRowf(8, 43.32, 115.51)
	out := tb.String()
	if !strings.Contains(out, "Table 1 reproduction") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "43.32") || !strings.Contains(out, "115.51") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns should be aligned: header and first row start identically.
	if len(lines[1]) == 0 || len(lines[3]) == 0 {
		t.Fatalf("empty rendered lines")
	}
}

func TestTableRowPaddingAndTruncation(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "extra-dropped")
	if len(tb.Rows[0]) != 2 || tb.Rows[0][1] != "" {
		t.Errorf("short row should be padded: %v", tb.Rows[0])
	}
	if len(tb.Rows[1]) != 2 {
		t.Errorf("long row should be truncated: %v", tb.Rows[1])
	}
}
