package experiments

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// hostColumns returns E7's Xeon and Power5 seconds per bootstrap count as
// golden lines: sweep, count, then each column's IEEE-754 bits.
func hostColumns(t *testing.T, sweep string, cfg Config) []string {
	t.Helper()
	r := Figure10(cfg)
	byName := map[string]map[float64]float64{}
	for _, s := range r.Series {
		ys := map[float64]float64{}
		for _, p := range s.Points {
			ys[p.X] = p.Y
		}
		byName[s.Name] = ys
	}
	xeon, p5 := byName["2x Intel Xeon (HT)"], byName["IBM Power5"]
	if xeon == nil || p5 == nil {
		t.Fatalf("%s: E7 has no Xeon or Power5 series", sweep)
	}
	counts := make([]float64, 0, len(xeon))
	for n := range xeon {
		counts = append(counts, n)
	}
	sort.Float64s(counts)
	var lines []string
	for _, n := range counts {
		lines = append(lines, fmt.Sprintf("%s %g %016x %016x", sweep, n,
			math.Float64bits(xeon[n]), math.Float64bits(p5[n])))
	}
	return lines
}

// TestFigure10HostColumnsGolden holds the comparison machines' seconds to the
// bits in testdata/figure10_hosts_golden.txt, for both the quick and the full
// sweep. The file was written at 4a675fb, where internal/hostsim modelled the
// two machines.
func TestFigure10HostColumnsGolden(t *testing.T) {
	f, err := os.Open("testdata/figure10_hosts_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := append(hostColumns(t, "quick", Config{Quick: true}), hostColumns(t, "full", Config{})...)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("E7 host columns differ from the golden:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
