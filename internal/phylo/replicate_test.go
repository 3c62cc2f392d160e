package phylo

// "Same bits", mechanically: a bootstrap replicate holds only the patterns its
// resample drew (WithWeights), and every result computed on it must equal, bit
// for bit, what the engine computes when the undrawn patterns are carried
// along with weight 0 — the formulation WithWeights produced until the parent
// commit, which survives here, as a struct literal, as the reference.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// uncompacted is the replicate with its zero weights left in: every pattern
// of data, sharing its states, under the given weights.
func uncompacted(data *PatternAlignment, weights []float64) *PatternAlignment {
	return &PatternAlignment{Names: data.Names, States: data.States, Weights: weights, SiteLength: data.SiteLength}
}

// replicatePair draws one resample of data and returns it in both forms.
func replicatePair(t *testing.T, data *PatternAlignment, seed int64) (compacted, reference *PatternAlignment) {
	t.Helper()
	weights := BootstrapWeights(data, rand.New(rand.NewSource(seed)))
	compacted, err := data.WithWeights(weights)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.NumPatterns() >= data.NumPatterns() {
		t.Fatalf("the resample drew all %d patterns; the case covers nothing", data.NumPatterns())
	}
	return compacted, uncompacted(data, weights)
}

func simulatedPatterns(t *testing.T, opts SimulateOptions) *PatternAlignment {
	t.Helper()
	_, aln, err := Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestReplicateKernelsMatchUncompacted is the kernel level: on one random
// tree per case, evaluate, every edge's makenewz and a full smoothing run
// return the same bits on the compacted replicate as on the uncompacted one.
func TestReplicateKernelsMatchUncompacted(t *testing.T) {
	freqs := Frequencies{0.31, 0.19, 0.24, 0.26}
	hky, err := NewHKY85(2.5, freqs)
	if err != nil {
		t.Fatal(err)
	}
	gtr, err := NewGTR([6]float64{0.4, 6, 0.9, 1.7, 9, 1}, Frequencies{0.45, 0.08, 0.12, 0.35})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	type kernelCase struct {
		name     string
		model    Model
		rates    RateCategories
		sim      SimulateOptions
		rescales bool
	}
	var cases []kernelCase
	for mi, m := range []struct {
		name  string
		model Model
	}{{"JC69", NewJC69()}, {"HKY85", hky}, {"GTR", gtr}} {
		for ri, r := range []struct {
			name  string
			rates RateCategories
		}{{"single", SingleRate()}, {"gamma4", gamma}} {
			seed := int64(1 + 2*mi + ri)
			cases = append(cases, kernelCase{
				name: m.name + "_" + r.name, model: m.model, rates: r.rates,
				sim: SimulateOptions{Taxa: 9 + 2*int(seed), Length: 200, Seed: seed, MeanBranchLength: 0.12},
			})
		}
	}
	// TestSumTableMatchesTransitionReference's deep tree: scalers are non-zero,
	// so the per-pattern log scaler is in every sum that loses terms.
	cases = append(cases, kernelCase{
		name: "rescaled_240_taxa", model: gtr, rates: gamma, rescales: true,
		sim: SimulateOptions{Taxa: 240, Length: 40, Seed: 9, MeanBranchLength: 0.2},
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := simulatedPatterns(t, c.sim)
			compacted, reference := replicatePair(t, data, c.sim.Seed+100)
			type side struct {
				eng  *Engine
				tree *Tree
			}
			var sides [2]side
			for i, d := range []*PatternAlignment{compacted, reference} {
				eng, err := NewEngine(d, c.model, c.rates)
				if err != nil {
					t.Fatal(err)
				}
				tree, err := NewRandomTree(d.Names, rand.New(rand.NewSource(c.sim.Seed)))
				if err != nil {
					t.Fatal(err)
				}
				sides[i] = side{eng, tree}
			}
			got, want := sides[0], sides[1]
			if a, b := got.eng.LogLikelihood(got.tree), want.eng.LogLikelihood(want.tree); !sameFloat(a, b) {
				t.Errorf("LogLikelihood %v on the compacted replicate, %v uncompacted", a, b)
			}
			if c.rescales {
				rescaled := false
				for _, sc := range got.eng.sclDown {
					rescaled = rescaled || sc != 0
				}
				if !rescaled {
					t.Fatal("the deep tree never triggered rescaling; the case covers nothing")
				}
			}
			got.eng.Refresh(got.tree)
			want.eng.Refresh(want.tree)
			for i, v := range got.tree.Nodes {
				if v.Parent == nil {
					continue
				}
				if a, b := got.eng.MakenewzEdge(v), want.eng.MakenewzEdge(want.tree.Nodes[i]); !sameFloat(a, b) {
					t.Errorf("node %d: MakenewzEdge %v on the compacted replicate, %v uncompacted", v.ID, a, b)
				}
			}
			if a, b := got.eng.OptimizeAllBranches(got.tree, 3), want.eng.OptimizeAllBranches(want.tree, 3); !sameFloat(a, b) {
				t.Errorf("OptimizeAllBranches %v on the compacted replicate, %v uncompacted", a, b)
			}
			if !bytes.Equal(AppendTreeBinary(nil, got.tree), AppendTreeBinary(nil, want.tree)) {
				t.Error("smoothed branch lengths differ between the compacted and the uncompacted replicate")
			}
		})
	}
}

// TestReplicateSearchMatchesUncompacted is the search level: bootstrap tasks
// 0…7 of two analyses finish, through RunTask, on the tree bytes and logL bits
// of the same search run over the uncompacted replicate, and the two searches
// make the same kernel calls — all but the site-repeat copies, of which there
// are fewer because there are fewer patterns to copy.
func TestReplicateSearchMatchesUncompacted(t *testing.T) {
	gtr, err := NewGTR([6]float64{1.3, 3.2, 0.9, 1.1, 4.1, 1.0}, Frequencies{0.31, 0.19, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := DiscreteGamma(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		model Model
		rates RateCategories
		sim   SimulateOptions
		opts  AnalysisOptions
	}{
		{"jc69_single_10x300", NewJC69(), SingleRate(),
			SimulateOptions{Taxa: 10, Length: 300, Seed: 21, MeanBranchLength: 0.08},
			AnalysisOptions{Seed: 1, Search: SearchOptions{SmoothingRounds: 4, MaxRounds: 8, Epsilon: 0.01}}},
		{"gtr_gamma4_9x240", gtr, gamma,
			SimulateOptions{Taxa: 9, Length: 240, Seed: 5, MeanBranchLength: 0.15},
			AnalysisOptions{Seed: 7, Search: SearchOptions{SmoothingRounds: 2, MaxRounds: 4, Epsilon: 0.01}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := simulatedPatterns(t, c.sim)
			for index := 0; index < 8; index++ {
				out, err := RunTask(context.Background(), data, c.model, c.rates, c.opts, TaskID{Bootstrap: true, Index: index}, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				// RunTask's bootstrap branch, written out so that the engines
				// (and their Stats) are in hand on both sides.
				compacted, reference := replicatePair(t, data, DeriveSeed(c.opts.Seed, SeedStreamBootstrapWeights, index))
				so := c.opts.Search
				so.Seed = DeriveSeed(c.opts.Seed, SeedStreamBootstrapSearch, index)
				var stats [2]KernelStats
				for i, d := range []*PatternAlignment{compacted, reference} {
					eng, err := NewEngine(d, c.model, c.rates)
					if err != nil {
						t.Fatal(err)
					}
					sr, err := eng.Search(so)
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloat(sr.LogLikelihood, out.LogLik) {
						t.Errorf("bootstrap %d, side %d: logL %v, RunTask %v", index, i, sr.LogLikelihood, out.LogLik)
					}
					if !bytes.Equal(AppendTreeBinary(nil, sr.Tree), AppendTreeBinary(nil, out.Tree)) {
						t.Errorf("bootstrap %d, side %d: tree bytes differ from RunTask's", index, i)
					}
					stats[i] = eng.Stats
				}
				if stats[0].RepeatsCopied >= stats[1].RepeatsCopied {
					t.Errorf("bootstrap %d: %d repeat copies over %d patterns, %d over all %d", index,
						stats[0].RepeatsCopied, compacted.NumPatterns(), stats[1].RepeatsCopied, reference.NumPatterns())
				}
				stats[0].RepeatsCopied, stats[1].RepeatsCopied = 0, 0
				if stats[0] != stats[1] {
					t.Errorf("bootstrap %d: kernel calls %+v on the compacted replicate, %+v uncompacted", index, stats[0], stats[1])
				}
			}
		})
	}
}

// readHexFile decodes a testdata file of line-wrapped hex text.
func readHexFile(t *testing.T, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return data
}

// TestBootstrapTaskResumesParentCheckpoint is the across-versions level. Both
// files were written at commit e54e62c — the last whose replicates carried
// their zero-weight patterns — by RunTask on the inputs below: the round-1
// checkpoint of bootstrap task 2 (of 7 boundaries) and that task's final tree
// (AppendTreeBinary) followed by the eight bytes of its logL, big-endian. A checkpoint has no pattern
// count, so this binary must decode it, accept it on the smaller replicate's
// engine and finish the remaining five sweeps on the stored bytes; and since
// not a bit moved, the uninterrupted task must also pass through that very
// checkpoint.
func TestBootstrapTaskResumesParentCheckpoint(t *testing.T) {
	round1 := readHexFile(t, "testdata/bootstrap_task_s2b2_round1.hex")
	final := readHexFile(t, "testdata/bootstrap_task_s2b2_final.hex")
	wantTree, wantLogL := final[:len(final)-8], final[len(final)-8:]

	data := simulatedPatterns(t, SimulateOptions{Taxa: 10, Length: 300, Seed: 21, MeanBranchLength: 0.08})
	opts := AnalysisOptions{Seed: 2, Search: SearchOptions{SmoothingRounds: 2, MaxRounds: 8, Epsilon: 0.01}}
	id := TaskID{Bootstrap: true, Index: 2}
	check := func(label string, out TaskOutcome) {
		t.Helper()
		if !bytes.Equal(AppendTreeBinary(nil, out.Tree), wantTree) {
			t.Errorf("%s: final tree bytes differ from the parent commit's", label)
		}
		if got, want := math.Float64bits(out.LogLik), binary.BigEndian.Uint64(wantLogL); got != want {
			t.Errorf("%s: logL bits %016x, the parent commit's %016x", label, got, want)
		}
	}

	c, err := DecodeCheckpoint(round1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Round != 1 {
		t.Fatalf("stored checkpoint is at round %d, want 1", c.Round)
	}
	replicate, err := Bootstrap(data, rand.New(rand.NewSource(DeriveSeed(opts.Seed, SeedStreamBootstrapWeights, id.Index))))
	if err != nil {
		t.Fatal(err)
	}
	if replicate.NumPatterns() >= data.NumPatterns() {
		t.Fatalf("the replicate kept all %d patterns; the case covers nothing", data.NumPatterns())
	}
	eng, err := NewEngine(replicate, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Matches(eng); err != nil {
		t.Fatalf("parent checkpoint rejected by the replicate's engine: %v", err)
	}
	resumed, err := RunTask(context.Background(), data, NewJC69(), SingleRate(), opts, id, nil, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("resumed from the parent's round 1", resumed)

	var ownRound1 []byte
	boundaries := 0
	whole, err := RunTask(context.Background(), data, NewJC69(), SingleRate(), opts, id, nil, nil, func(c *Checkpoint) {
		boundaries++
		if c.Round == 1 {
			ownRound1 = c.AppendBinary(nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	check("uninterrupted", whole)
	if boundaries < 4 {
		t.Errorf("the task has %d sweep boundaries; round 1 is not mid-search", boundaries)
	}
	if !bytes.Equal(ownRound1, round1) {
		t.Error("this binary's round-1 checkpoint is not the parent commit's, byte for byte")
	}
}
