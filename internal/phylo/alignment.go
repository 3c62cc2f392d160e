package phylo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Alignment is a multiple sequence alignment of DNA sequences: every sequence
// has the same length and represents one taxon (organism).
type Alignment struct {
	Names []string
	Seqs  [][]byte
}

// NumTaxa returns the number of sequences.
func (a *Alignment) NumTaxa() int { return len(a.Seqs) }

// Length returns the number of alignment columns (0 for an empty alignment).
func (a *Alignment) Length() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0])
}

// Validate checks structural consistency.
func (a *Alignment) Validate() error {
	if len(a.Names) != len(a.Seqs) {
		return fmt.Errorf("phylo: %d names for %d sequences", len(a.Names), len(a.Seqs))
	}
	if len(a.Seqs) < 2 {
		return fmt.Errorf("phylo: an alignment needs at least two sequences, got %d", len(a.Seqs))
	}
	L := len(a.Seqs[0])
	if L == 0 {
		return fmt.Errorf("phylo: empty sequences")
	}
	seen := map[string]bool{}
	for i, s := range a.Seqs {
		if len(s) != L {
			return fmt.Errorf("phylo: sequence %q has length %d, want %d", a.Names[i], len(s), L)
		}
		if a.Names[i] == "" {
			return fmt.Errorf("phylo: sequence %d has an empty name", i)
		}
		if seen[a.Names[i]] {
			return fmt.Errorf("phylo: duplicate taxon name %q", a.Names[i])
		}
		seen[a.Names[i]] = true
		for j, c := range s {
			if stateBits(c) == 0 {
				return fmt.Errorf("phylo: sequence %q has invalid character %q at column %d", a.Names[i], c, j)
			}
		}
	}
	return nil
}

// stateBits maps an IUPAC nucleotide character to a 4-bit set over {A,C,G,T}.
// Unknown characters map to 0 (invalid); gaps and N map to all four bits.
func stateBits(c byte) uint8 {
	switch c {
	case 'A', 'a':
		return 1 << StateA
	case 'C', 'c':
		return 1 << StateC
	case 'G', 'g':
		return 1 << StateG
	case 'T', 't', 'U', 'u':
		return 1 << StateT
	case 'R', 'r': // A or G
		return 1<<StateA | 1<<StateG
	case 'Y', 'y': // C or T
		return 1<<StateC | 1<<StateT
	case 'S', 's': // G or C
		return 1<<StateG | 1<<StateC
	case 'W', 'w': // A or T
		return 1<<StateA | 1<<StateT
	case 'K', 'k': // G or T
		return 1<<StateG | 1<<StateT
	case 'M', 'm': // A or C
		return 1<<StateA | 1<<StateC
	case 'B', 'b':
		return 1<<StateC | 1<<StateG | 1<<StateT
	case 'D', 'd':
		return 1<<StateA | 1<<StateG | 1<<StateT
	case 'H', 'h':
		return 1<<StateA | 1<<StateC | 1<<StateT
	case 'V', 'v':
		return 1<<StateA | 1<<StateC | 1<<StateG
	case 'N', 'n', '-', '?', 'X', 'x', '.':
		return 0x0F
	default:
		return 0
	}
}

// ParsePhylip reads a sequential (non-interleaved) PHYLIP alignment:
// a header line with the number of taxa and the sequence length, followed by
// one line per taxon with the name and the sequence separated by whitespace.
// This is the relaxed PHYLIP dialect RAxML accepts.
func ParsePhylip(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("phylo: empty PHYLIP input")
	}
	var nTaxa, length int
	if _, err := fmt.Sscan(sc.Text(), &nTaxa, &length); err != nil {
		return nil, fmt.Errorf("phylo: bad PHYLIP header %q: %v", sc.Text(), err)
	}
	aln := &Alignment{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("phylo: malformed PHYLIP line %q", line)
		}
		name := fields[0]
		seq := strings.ToUpper(strings.Join(fields[1:], ""))
		aln.Names = append(aln.Names, name)
		aln.Seqs = append(aln.Seqs, []byte(seq))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(aln.Seqs) != nTaxa {
		return nil, fmt.Errorf("phylo: header promises %d taxa, found %d", nTaxa, len(aln.Seqs))
	}
	if aln.Length() != length {
		return nil, fmt.Errorf("phylo: header promises length %d, found %d", length, aln.Length())
	}
	if err := aln.Validate(); err != nil {
		return nil, err
	}
	return aln, nil
}

// WritePhylip writes the alignment in sequential PHYLIP format.
func (a *Alignment) WritePhylip(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d %d\n", a.NumTaxa(), a.Length()); err != nil {
		return err
	}
	for i, name := range a.Names {
		if _, err := fmt.Fprintf(w, "%s  %s\n", name, a.Seqs[i]); err != nil {
			return err
		}
	}
	return nil
}

// PatternAlignment is the pattern-compressed form of an alignment: identical
// columns are collapsed into a single pattern with an integer weight. The
// likelihood kernels iterate over patterns, which is exactly the loop the
// paper parallelizes across SPEs (228 patterns for the 42_SC input).
type PatternAlignment struct {
	Names []string
	// States[taxon][pattern] is the 4-bit observed state set.
	States [][]uint8
	// Weights[pattern] is the number of original columns collapsed into the
	// pattern — in a bootstrap replicate, the number of times the resample
	// drew one of them, which is never 0: an undrawn pattern is not in the
	// replicate (WithWeights).
	Weights []float64
	// SiteLength is the number of columns of the original alignment. A
	// replicate keeps it (a resample draws that many columns) while its
	// NumPatterns is smaller.
	SiteLength int
}

// NumTaxa returns the number of taxa.
func (p *PatternAlignment) NumTaxa() int { return len(p.States) }

// NumPatterns returns the number of distinct site patterns.
func (p *PatternAlignment) NumPatterns() int { return len(p.Weights) }

// Compress collapses identical alignment columns into weighted patterns.
func Compress(a *Alignment) (*PatternAlignment, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	n := a.NumTaxa()
	L := a.Length()
	type patKey string
	index := map[patKey]int{}
	pa := &PatternAlignment{
		Names:      append([]string(nil), a.Names...),
		States:     make([][]uint8, n),
		SiteLength: L,
	}
	col := make([]byte, n)
	var order []patKey
	colWeights := map[patKey]float64{}
	for site := 0; site < L; site++ {
		for t := 0; t < n; t++ {
			col[t] = byte(stateBits(a.Seqs[t][site]))
		}
		key := patKey(col)
		if _, ok := index[key]; !ok {
			index[key] = len(order)
			order = append(order, key)
		}
		colWeights[key]++
	}
	// Sort patterns lexicographically for a canonical, reproducible order.
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	pa.Weights = make([]float64, len(order))
	for t := 0; t < n; t++ {
		pa.States[t] = make([]uint8, len(order))
	}
	for pi, key := range order {
		pa.Weights[pi] = colWeights[key]
		for t := 0; t < n; t++ {
			pa.States[t][pi] = uint8(key[t])
		}
	}
	return pa, nil
}

// TotalWeight returns the sum of pattern weights (the original alignment
// length for unresampled weights, or the resample size for bootstrap
// weights).
func (p *PatternAlignment) TotalWeight() float64 {
	var s float64
	for _, w := range p.Weights {
		s += w
	}
	return s
}

// WithWeights returns the pattern alignment re-weighted — how a bootstrap
// replicate is represented: the patterns the weights keep (weight > 0), in
// their original order, each with its new weight. A pattern of weight 0 adds
// ±0 to every sum the engine takes over patterns, so it leaves the replicate
// here, before any kernel runs over it, and not a bit of any result depends
// on that. The copy owns its Weights and States (compacted column by column
// into fresh slices; the original is never aliased) and shares the read-only
// Names; SiteLength stays the original column count.
//
// The vector must have one finite, non-negative weight per pattern, at least
// one of them positive; anything else is an error naming the first offender.
func (p *PatternAlignment) WithWeights(weights []float64) (*PatternAlignment, error) {
	if len(weights) != p.NumPatterns() {
		return nil, fmt.Errorf("phylo: %d weights for %d patterns", len(weights), p.NumPatterns())
	}
	kept := 0
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("phylo: weight %d is %v, want a finite value >= 0", i, w)
		}
		if w > 0 {
			kept++
		}
	}
	if kept == 0 {
		return nil, fmt.Errorf("phylo: no pattern has weight: all %d weights are zero", len(weights))
	}
	cp := &PatternAlignment{
		Names:      p.Names,
		States:     make([][]uint8, len(p.States)),
		Weights:    make([]float64, 0, kept),
		SiteLength: p.SiteLength,
	}
	for _, w := range weights {
		if w > 0 {
			cp.Weights = append(cp.Weights, w)
		}
	}
	for t, row := range p.States {
		states := make([]uint8, 0, kept)
		for i, w := range weights {
			if w > 0 {
				states = append(states, row[i])
			}
		}
		cp.States[t] = states
	}
	return cp, nil
}
