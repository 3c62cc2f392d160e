package phylo

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const samplePhylip = `4 12
alpha  ACGTACGTACGT
beta   ACGTACGAACGT
gamma  ACGAACGAACGA
delta  TCGAACGAACGA
`

func TestParsePhylip(t *testing.T) {
	aln, err := ParsePhylip(strings.NewReader(samplePhylip))
	if err != nil {
		t.Fatal(err)
	}
	if aln.NumTaxa() != 4 || aln.Length() != 12 {
		t.Fatalf("parsed %d taxa x %d sites", aln.NumTaxa(), aln.Length())
	}
	if aln.Names[0] != "alpha" || aln.Names[3] != "delta" {
		t.Errorf("names = %v", aln.Names)
	}
	if string(aln.Seqs[3][:4]) != "TCGA" {
		t.Errorf("sequence content wrong: %s", aln.Seqs[3])
	}
}

func TestParsePhylipErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "not a header\nfoo ACGT\n",
		"taxa mismatch":   "3 4\na ACGT\nb ACGT\n",
		"length mismatch": "2 5\na ACGT\nb ACGT\n",
		"bad character":   "2 4\na ACZT\nb ACGT\n",
		"duplicate name":  "2 4\na ACGT\na ACGT\n",
		"missing seq":     "2 4\na\nb ACGT\n",
	}
	for name, input := range cases {
		if _, err := ParsePhylip(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected a parse error", name)
		}
	}
}

func TestPhylipRoundTrip(t *testing.T) {
	aln, err := ParsePhylip(strings.NewReader(samplePhylip))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aln.WritePhylip(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ParsePhylip(&buf)
	if err != nil {
		t.Fatalf("re-parsing written PHYLIP failed: %v", err)
	}
	if again.NumTaxa() != aln.NumTaxa() || again.Length() != aln.Length() {
		t.Errorf("round trip changed dimensions")
	}
	for i := range aln.Seqs {
		if string(again.Seqs[i]) != string(aln.Seqs[i]) {
			t.Errorf("round trip changed sequence %d", i)
		}
	}
}

func TestStateBits(t *testing.T) {
	cases := map[byte]uint8{
		'A': 1, 'C': 2, 'G': 4, 'T': 8, 'U': 8,
		'a': 1, 't': 8,
		'R': 5, 'Y': 10, 'N': 15, '-': 15, '?': 15,
		'M': 3, 'K': 12, 'W': 9, 'S': 6,
		'B': 14, 'D': 13, 'H': 11, 'V': 7,
		'Z': 0, '1': 0,
	}
	for c, want := range cases {
		if got := stateBits(c); got != want {
			t.Errorf("stateBits(%q) = %04b, want %04b", c, got, want)
		}
	}
}

func TestCompressPatterns(t *testing.T) {
	aln, err := ParsePhylip(strings.NewReader(samplePhylip))
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	if pa.NumTaxa() != 4 {
		t.Errorf("taxa = %d", pa.NumTaxa())
	}
	// The sample has 12 columns: ACGT/ACGT/ACGA/TCGA repeated with three
	// distinct column types (positions 0,4,8 / 1,2,5,6,9,10 / 3,7,11), so the
	// compression should find exactly 4 distinct patterns: columns at
	// positions 0 (A,A,A,T), 4&8 (A,A,A,A), 1,2,... check totals instead.
	if pa.TotalWeight() != 12 {
		t.Errorf("pattern weights sum to %v, want 12", pa.TotalWeight())
	}
	if pa.NumPatterns() >= 12 || pa.NumPatterns() < 3 {
		t.Errorf("unexpected pattern count %d", pa.NumPatterns())
	}
	if pa.SiteLength != 12 {
		t.Errorf("site length = %d", pa.SiteLength)
	}
}

func TestCompressionIsLosslessForLikelihoodPurposes(t *testing.T) {
	// Every column of the original alignment must be represented: for each
	// taxon, the weighted count of each state bit-pattern must match.
	_, aln, err := Simulate(SimulateOptions{Taxa: 6, Length: 200, Seed: 3, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	for taxon := 0; taxon < aln.NumTaxa(); taxon++ {
		orig := map[uint8]float64{}
		for site := 0; site < aln.Length(); site++ {
			orig[stateBits(aln.Seqs[taxon][site])]++
		}
		comp := map[uint8]float64{}
		for p := 0; p < pa.NumPatterns(); p++ {
			comp[pa.States[taxon][p]] += pa.Weights[p]
		}
		for bits, count := range orig {
			if comp[bits] != count {
				t.Fatalf("taxon %d: state %04b appears %v times compressed vs %v original", taxon, bits, comp[bits], count)
			}
		}
	}
}

func TestCompressDeterministicOrder(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 5, Length: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Compress(aln)
	b, _ := Compress(aln)
	if a.NumPatterns() != b.NumPatterns() {
		t.Fatalf("pattern counts differ")
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatalf("pattern order not deterministic")
		}
	}
}

// TestWithWeights pins what a re-weighted copy is — the patterns of non-zero
// weight, in order, column for column, owning everything it could be mutated
// through — and what WithWeights refuses.
func TestWithWeights(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 6, Length: 80, Seed: 3, MeanBranchLength: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	nPat := pa.NumPatterns()
	origWeights := append([]float64(nil), pa.Weights...)
	origStates := make([][]uint8, len(pa.States))
	for i, row := range pa.States {
		origStates[i] = append([]uint8(nil), row...)
	}
	checkOriginal := func(when string) {
		t.Helper()
		for i, w := range origWeights {
			if pa.Weights[i] != w {
				t.Fatalf("%s: original weight %d changed", when, i)
			}
		}
		for i, row := range origStates {
			if !bytes.Equal(pa.States[i], row) {
				t.Fatalf("%s: original states of taxon %d changed", when, i)
			}
		}
	}

	// Every third pattern undrawn, the rest with distinct weights.
	w := make([]float64, nPat)
	var kept []int
	var total float64
	for i := range w {
		if i%3 != 1 {
			w[i] = float64(i + 1)
			total += w[i]
			kept = append(kept, i)
		}
	}
	re, err := pa.WithWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumPatterns() != len(kept) || re.NumTaxa() != pa.NumTaxa() {
		t.Fatalf("replicate is %d taxa x %d patterns, want %d x %d", re.NumTaxa(), re.NumPatterns(), pa.NumTaxa(), len(kept))
	}
	for j, i := range kept {
		if re.Weights[j] != w[i] {
			t.Errorf("survivor %d has weight %v, want pattern %d's %v", j, re.Weights[j], i, w[i])
		}
		for taxon := range pa.States {
			if re.States[taxon][j] != pa.States[taxon][i] {
				t.Errorf("survivor %d, taxon %d: state %#x, want pattern %d's %#x", j, taxon, re.States[taxon][j], i, pa.States[taxon][i])
			}
		}
	}
	if re.TotalWeight() != total || re.SiteLength != pa.SiteLength {
		t.Errorf("total weight %v (want %v), SiteLength %d (want %d)", re.TotalWeight(), total, re.SiteLength, pa.SiteLength)
	}
	if &re.Names[0] != &pa.Names[0] {
		t.Error("Names should be shared with the original")
	}
	for j := range re.Weights {
		re.Weights[j] = -1
		for taxon := range re.States {
			re.States[taxon][j] = 0xFF
		}
	}
	checkOriginal("after mutating the copy")
	w[0] = 99
	if re.Weights[0] == 99 {
		t.Error("the copy aliases the caller's weight vector")
	}

	// No zeros: nothing dropped, and still nothing aliased.
	full, err := pa.WithWeights(origWeights)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumPatterns() != nPat || full.TotalWeight() != pa.TotalWeight() {
		t.Errorf("all-positive weights kept %d of %d patterns, total %v of %v", full.NumPatterns(), nPat, full.TotalWeight(), pa.TotalWeight())
	}
	for taxon, row := range full.States {
		if !bytes.Equal(row, pa.States[taxon]) {
			t.Errorf("all-positive weights changed the states of taxon %d", taxon)
		}
		row[0] ^= 0x0F
	}
	full.Weights[0]++
	checkOriginal("after mutating the all-positive copy")

	// with is the original weight vector with one entry replaced.
	with := func(i int, v float64) []float64 {
		out := append([]float64(nil), origWeights...)
		out[i] = v
		return out
	}
	for _, c := range []struct {
		name    string
		weights []float64
		want    string
	}{
		{"short vector", origWeights[:1], "1 weights for"},
		{"negative", with(2, -1), "weight 2 is -1"},
		{"NaN", with(nPat-1, math.NaN()), fmt.Sprintf("weight %d is NaN", nPat-1)},
		{"infinite", with(0, math.Inf(1)), "weight 0 is +Inf"},
		{"all zero", make([]float64, nPat), "no pattern has weight"},
	} {
		got, err := pa.WithWeights(c.weights)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if got != nil {
			t.Errorf("%s: a replicate came back with the error", c.name)
		}
	}
	// BootstrapWeights of an alignment without weight is all zeros; Bootstrap
	// must say so instead of handing NewEngine an empty alignment.
	weightless := &PatternAlignment{Names: pa.Names, States: pa.States, Weights: make([]float64, nPat), SiteLength: pa.SiteLength}
	if _, err := Bootstrap(weightless, rand.New(rand.NewSource(1))); err == nil || !strings.Contains(err.Error(), "no pattern has weight") {
		t.Errorf("Bootstrap of a weightless alignment: error %v, want \"no pattern has weight\"", err)
	}
	if _, err := RunTask(context.Background(), weightless, NewJC69(), SingleRate(), AnalysisOptions{}, TaskID{Bootstrap: true}, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "no pattern has weight") {
		t.Errorf("bootstrap task on a weightless alignment: error %v, want \"no pattern has weight\"", err)
	}
}

func TestAlignmentValidate(t *testing.T) {
	good := &Alignment{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGA")}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid alignment rejected: %v", err)
	}
	bad := []*Alignment{
		{Names: []string{"a"}, Seqs: [][]byte{[]byte("ACGT")}},                                      // too few
		{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACG")}},                  // ragged
		{Names: []string{"a", ""}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGT")}},                  // empty name
		{Names: []string{"a", "a"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGT")}},                 // dup name
		{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte("AC!T"), []byte("ACGT")}},                 // bad char
		{Names: []string{"a", "b", "c"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGT")}},            // name/seq mismatch
		{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte(""), []byte("")}},                         // empty seqs
		{Names: []string{"a", "b"}, Seqs: [][]byte{[]byte("ACGT"), []byte("ACGT"), []byte("ACGT")}}, // extra seq
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad alignment %d accepted", i)
		}
	}
}

// Property: bootstrap weights always sum to the original alignment length and
// are non-negative.
func TestPropertyBootstrapWeights(t *testing.T) {
	aln, _ := ParsePhylip(strings.NewReader(samplePhylip))
	pa, _ := Compress(aln)
	f := func(seed int64) bool {
		w := BootstrapWeights(pa, rand.New(rand.NewSource(seed)))
		var sum float64
		for _, x := range w {
			if x < 0 {
				return false
			}
			sum += x
		}
		return sum == float64(pa.SiteLength)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBootstrapDeterministicPerSeed(t *testing.T) {
	aln, _ := ParsePhylip(strings.NewReader(samplePhylip))
	pa, _ := Compress(aln)
	w1 := BootstrapWeights(pa, rand.New(rand.NewSource(11)))
	w2 := BootstrapWeights(pa, rand.New(rand.NewSource(11)))
	w3 := BootstrapWeights(pa, rand.New(rand.NewSource(12)))
	same := true
	diff := false
	for i := range w1 {
		if w1[i] != w2[i] {
			same = false
		}
		if w1[i] != w3[i] {
			diff = true
		}
	}
	if !same {
		t.Errorf("same seed should give the same bootstrap weights")
	}
	if !diff {
		t.Errorf("different seeds should give different bootstrap weights")
	}
}
