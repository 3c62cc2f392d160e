package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file property-tests the site-repeat compression invariant: under every
// model/rate configuration and any reachable sequence of topology and
// branch-length operations, the compressed evaluation is BYTE-identical (==,
// no tolerance) to the uncompressed one. The claim is exact because a repeat
// class certifies identical kernel inputs, and the kernel is deterministic —
// see the invariant argument at the top of siterepeats.go.

// repeatTestData builds a small alignment with deliberately repetitive
// columns (few taxa, short sequences, heavy site reuse after compression)
// so subtree repeats actually occur at many internal nodes.
func repeatTestData(t *testing.T, taxa, length int, seed int64) *PatternAlignment {
	t.Helper()
	_, aln, err := Simulate(SimulateOptions{Taxa: taxa, Length: length, Seed: seed, MeanBranchLength: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSiteRepeatsMatchReference drives three engines through an identical
// random op sequence — NNI rearrangements, direct branch-length writes, and
// Newton branch optimizations — and demands byte-identical log-likelihoods
// after every step:
//
//	on:    site repeats enabled, incremental invalidation (the shipped path)
//	off:   site repeats disabled, incremental invalidation (the reference loop)
//	fresh: a from-scratch engine re-built per check (no state to go stale)
//
// Agreement of `on` with `off` proves the compression copies exactly what the
// kernel would have computed; agreement with `fresh` proves the class version
// stamps never skip a rebuild they needed.
func TestSiteRepeatsMatchReference(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			data := repeatTestData(t, 14, 240, 3161)
			on, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			off, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			off.setSiteRepeats(false)
			if on.repOn == off.repOn {
				t.Fatal("engines do not differ in site-repeat mode")
			}
			rng := rand.New(rand.NewSource(271))
			tree, err := NewRandomTree(data.Names, rng)
			if err != nil {
				t.Fatal(err)
			}

			check := func(step int, op string) {
				t.Helper()
				got := on.LogLikelihood(tree)
				want := off.LogLikelihood(tree)
				if got != want {
					t.Fatalf("step %d (%s): repeats-on logL %v != repeats-off %v (diff %g)",
						step, op, got, want, got-want)
				}
				fresh, err := NewEngine(data, cfg.model, cfg.rates)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Refresh(tree)
				if ref := fresh.EvaluateRoot(tree); got != ref {
					t.Fatalf("step %d (%s): repeats-on logL %v != from-scratch %v (diff %g)",
						step, op, got, ref, got-ref)
				}
			}
			check(0, "initial")

			for step := 1; step <= 30; step++ {
				var op string
				switch rng.Intn(3) {
				case 0:
					moves := tree.AppendNNIMoves(nil)
					m := moves[rng.Intn(len(moves))]
					m.Apply()
					on.InvalidateNode(m.Edge)
					off.InvalidateNode(m.Edge)
					op = "nni"
				case 1:
					n := tree.Nodes[rng.Intn(len(tree.Nodes))]
					if n.Parent == nil {
						continue
					}
					n.Length = MinBranchLength + rng.Float64()*0.6
					on.InvalidateEdge(n)
					off.InvalidateEdge(n)
					op = "length"
				default:
					// Optimize on the repeats-on engine, then tell the other
					// engine what changed (OptimizeBranch smooths one edge and
					// self-invalidates only its own state).
					edges := tree.Edges()
					e := edges[rng.Intn(len(edges))]
					on.OptimizeBranch(tree, e)
					off.InvalidateEdge(e)
					op = "optimize-branch"
				}
				check(step, op)
			}
		})
	}
}

// TestSiteRepeatsToggleMidSequence flips compression on and off WHILE a random
// mutation sequence runs. Class maintenance is suspended during off periods,
// so re-enabling must forget every version stamp and rebuild bottom-up
// (setSiteRepeats's forget-and-rebuild path); a missed rebuild shows up here
// as a logL divergence from the always-off reference.
func TestSiteRepeatsToggleMidSequence(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			data := repeatTestData(t, 12, 200, 58)
			tog, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			ref.setSiteRepeats(false)
			rng := rand.New(rand.NewSource(907))
			tree, err := NewRandomTree(data.Names, rng)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step <= 40; step++ {
				switch rng.Intn(4) {
				case 0:
					moves := tree.AppendNNIMoves(nil)
					m := moves[rng.Intn(len(moves))]
					m.Apply()
					tog.InvalidateNode(m.Edge)
					ref.InvalidateNode(m.Edge)
				case 1:
					n := tree.Nodes[rng.Intn(len(tree.Nodes))]
					if n.Parent == nil {
						continue
					}
					n.Length = MinBranchLength + rng.Float64()*0.5
					tog.InvalidateEdge(n)
					ref.InvalidateEdge(n)
				case 2:
					// Toggle mid-flight — the adversarial step. Half the
					// toggles happen with dirty state pending.
					tog.setSiteRepeats(!tog.repOn)
				default:
					// No mutation: consecutive evaluations must also agree.
				}
				got := tog.LogLikelihood(tree)
				want := ref.LogLikelihood(tree)
				if got != want {
					t.Fatalf("step %d (repeats=%v): toggled logL %v != reference %v (diff %g)",
						step, tog.repOn, got, want, got-want)
				}
			}
		})
	}
}

// TestDegenerateInputsFiniteLogL pins the finiteness contract negInf() relies
// on (bootstrap.go): the evaluate kernel clamps per-site likelihoods to
// math.SmallestNonzeroFloat64, so even adversarial inputs — all-gap columns,
// minimum-length and extremely long branches — produce a finite
// log-likelihood, never -Inf or NaN.
func TestDegenerateInputsFiniteLogL(t *testing.T) {
	gapRow := func(n int) []byte {
		row := make([]byte, n)
		for i := range row {
			row[i] = '-'
		}
		return row
	}
	aln := &Alignment{
		Names: []string{"t1", "t2", "t3", "t4", "t5"},
		Seqs: [][]byte{
			[]byte("ACGTACGT----NNNN"),
			[]byte("ACGTTGCA----NNNN"),
			[]byte("ACGTCCAA----NNNN"),
			gapRow(16), // an entirely uninformative taxon
			[]byte("ACGTGGTT----NNNN"),
		},
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			for _, repeats := range []bool{true, false} {
				eng, err := NewEngine(data, cfg.model, cfg.rates)
				if err != nil {
					t.Fatal(err)
				}
				eng.setSiteRepeats(repeats)
				tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(5)))
				if err != nil {
					t.Fatal(err)
				}
				// Boundary branch lengths: clamp floor everywhere, then one
				// branch stretched to effective saturation.
				for _, n := range tree.Nodes {
					if n.Parent != nil {
						n.Length = MinBranchLength
					}
				}
				edges := tree.Edges()
				edges[len(edges)/2].Length = 50
				eng.InvalidateAll()
				logL := eng.LogLikelihood(tree)
				if math.IsInf(logL, 0) || math.IsNaN(logL) {
					t.Fatalf("repeats=%v: degenerate input produced non-finite logL %v", repeats, logL)
				}
				if logL >= 0 {
					t.Fatalf("repeats=%v: logL %v is not a log-probability", repeats, logL)
				}
			}
		})
	}
}

// TestPairTableBoundedByPatterns holds the class-rebuild scratch to O(nPat).
// On random data every pattern is its own class well below the root, so with
// an 8|8 root split each root child has about nPat classes and a table
// indexed by (left class, right class) would need about nPat² slots (9e6 at
// 3,000 patterns; 6e8 for a 20 × 50,000 alignment a server accepts).
func TestPairTableBoundedByPatterns(t *testing.T) {
	const taxa, length = 16, 3000
	rng := rand.New(rand.NewSource(11))
	aln := &Alignment{}
	for i := 0; i < taxa; i++ {
		aln.Names = append(aln.Names, fmt.Sprintf("t%d", i))
		row := make([]byte, length)
		for j := range row {
			row[j] = "ACGT"[rng.Intn(4)]
		}
		aln.Seqs = append(aln.Seqs, row)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	// Two balanced 8-taxon halves: ((((t0,t1),(t2,t3)),((t4,t5),(t6,t7))),(…t8–t15…));
	half := func(k int) string {
		return fmt.Sprintf("(((t%d:0.1,t%d:0.1):0.1,(t%d:0.1,t%d:0.1):0.1):0.1,((t%d:0.1,t%d:0.1):0.1,(t%d:0.1,t%d:0.1):0.1):0.1)",
			k, k+1, k+2, k+3, k+4, k+5, k+6, k+7)
	}
	tree, err := ParseNewick("(" + half(0) + ":0.1," + half(8) + ":0.1);")
	if err != nil {
		t.Fatal(err)
	}
	var logL [2]float64
	for k, repeats := range []bool{true, false} {
		eng, err := NewEngine(data, NewJC69(), SingleRate())
		if err != nil {
			t.Fatal(err)
		}
		eng.setSiteRepeats(repeats)
		logL[k] = eng.LogLikelihood(tree)
		if repeats {
			nPat := data.NumPatterns()
			if got := int(eng.repCnt[tree.Root.ID]); got < nPat/2 {
				t.Fatalf("root has %d classes of %d patterns; the data no longer stresses the table", got, nPat)
			}
			if n := cap(eng.pairTab); n > 4*nPat {
				t.Fatalf("pair table has %d slots for %d patterns, want at most %d", n, nPat, 4*nPat)
			}
		}
	}
	if logL[0] != logL[1] {
		t.Fatalf("logL with repeats %v, without %v", logL[0], logL[1])
	}
}
