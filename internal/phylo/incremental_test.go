package phylo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// incrementalConfigs is the model grid the incremental machinery is proven
// equivalent on: both transition-matrix families (closed-form JC69,
// eigen-exponential GTR) crossed with single-rate and Gamma4 heterogeneity.
func incrementalConfigs(t *testing.T) []struct {
	name  string
	model Model
	rates RateCategories
} {
	t.Helper()
	gtr, err := NewGTR([6]float64{1.5, 3, 0.7, 1.2, 4, 1}, Frequencies{0.28, 0.22, 0.24, 0.26})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := DiscreteGamma(0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name  string
		model Model
		rates RateCategories
	}{
		{"JC69_single", NewJC69(), SingleRate()},
		{"JC69_gamma4", NewJC69(), gamma},
		{"GTR_single", gtr, SingleRate()},
		{"GTR_gamma4", gtr, gamma},
	}
}

// TestIncrementalMatchesFullRefresh is the incremental-correctness property
// test: a long random sequence of NNI rearrangements, direct branch-length
// mutations and local optimizations is applied to one engine that only ever
// sees incremental invalidations, and after every step its log-likelihood
// must be byte-identical (==, no tolerance) to a from-scratch engine that
// recomputes everything. Equality is exact because every conditional vector
// is a deterministic function of its inputs, so skipping recomputation of
// clean vectors cannot change a single bit.
func TestIncrementalMatchesFullRefresh(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			_, aln, err := Simulate(SimulateOptions{Taxa: 12, Length: 300, Seed: 77, MeanBranchLength: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			data, err := Compress(aln)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			tree, err := NewRandomTree(data.Names, rng)
			if err != nil {
				t.Fatal(err)
			}

			check := func(step int, op string) {
				t.Helper()
				got := inc.LogLikelihood(tree)
				fresh, err := NewEngine(data, cfg.model, cfg.rates)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Refresh(tree)
				want := fresh.EvaluateRoot(tree)
				if got != want {
					t.Fatalf("step %d (%s): incremental logL %v != from-scratch %v (diff %g)",
						step, op, got, want, got-want)
				}
			}
			check(0, "initial")

			for step := 1; step <= 40; step++ {
				var op string
				switch rng.Intn(4) {
				case 0:
					// Random NNI rearrangement, invalidated per the contract.
					moves := tree.AppendNNIMoves(nil)
					m := moves[rng.Intn(len(moves))]
					m.Apply()
					inc.InvalidateNode(m.Edge)
					op = "nni"
				case 1:
					// Direct branch-length mutation.
					n := tree.Nodes[rng.Intn(len(tree.Nodes))]
					if n.Parent == nil {
						continue
					}
					n.Length = MinBranchLength + rng.Float64()*0.6
					inc.InvalidateEdge(n)
					op = "length"
				case 2:
					// Local optimization around a random edge (the engine
					// invalidates its own accepted updates).
					edges := tree.Edges()
					inc.OptimizeLocal(tree, edges[rng.Intn(len(edges))], 1, 2)
					op = "optimize-local"
				default:
					// Single-branch Newton optimization.
					edges := tree.Edges()
					inc.OptimizeBranch(tree, edges[rng.Intn(len(edges))])
					op = "optimize-branch"
				}
				check(step, op)
				if err := tree.Validate(); err != nil {
					t.Fatalf("step %d (%s) corrupted the tree: %v", step, op, err)
				}
			}
		})
	}
}

// TestInvalidateAllRepairsUnreportedMutations documents the escape hatch: a
// caller that mutated the tree without telling the engine gets a stale value,
// and InvalidateAll (like Refresh) makes the next evaluation correct again.
func TestInvalidateAllRepairsUnreportedMutations(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 9, Length: 250, Seed: 13, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(3)))
	ll0 := eng.LogLikelihood(tree)

	edge := tree.Edges()[2]
	edge.Length *= 4 // silent mutation: no invalidation
	if got := eng.LogLikelihood(tree); got != ll0 {
		t.Fatalf("unreported mutation should leave the cached likelihood untouched: %v vs %v", got, ll0)
	}
	eng.InvalidateAll()
	fresh, _ := NewEngine(data, NewJC69(), SingleRate())
	if got, want := eng.LogLikelihood(tree), fresh.LogLikelihood(tree); got != want {
		t.Fatalf("after InvalidateAll: %v != fresh engine %v", got, want)
	}
}

// TestCollectLocalEdgesQuartet checks the radius-1 neighborhood around a
// proper internal edge is exactly the classic NNI quartet: the edge itself,
// its two children, its sibling, and the parent's edge.
func TestCollectLocalEdgesQuartet(t *testing.T) {
	// ((A,B)x,(C,(D,E)y)z); — y is an internal edge whose parent z is not
	// the root's child... build something deep enough instead.
	tree, err := ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,(D:0.1,E:0.1):0.2):0.1);")
	if err != nil {
		t.Fatal(err)
	}
	aln := &Alignment{
		Names: []string{"A", "B", "C", "D", "E"},
		Seqs: [][]byte{
			[]byte("ACGTACGT"), []byte("ACGTACGA"), []byte("ACGTACCA"),
			[]byte("ACGTTCCA"), []byte("ACCTTCCA"),
		},
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	moves := tree.AppendNNIMoves(nil)
	if len(moves) == 0 {
		t.Fatal("tree has no internal edge")
	}
	v := moves[0].Edge // the (D,E) node: an internal edge away from the root
	got := eng.collectLocalEdges(tree, v, 1)
	want := map[*Node]bool{
		v:             true,
		v.Children[0]: true,
		v.Children[1]: true,
		v.Sibling():   true,
		v.Parent:      true,
	}
	delete(want, nil)
	if v.Parent.Parent == nil {
		delete(want, v.Parent) // root edges do not exist
	}
	if len(got) != len(want) {
		t.Fatalf("local edge set has %d edges, want %d", len(got), len(want))
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected edge above node %d in the local set", n.ID)
		}
	}
	// The collection must be allocation-free once the scratch is sized.
	if avg := testing.AllocsPerRun(50, func() { eng.collectLocalEdges(tree, v, 1) }); avg != 0 {
		t.Errorf("collectLocalEdges allocates %v per run in steady state", avg)
	}
}

// TestOptimizeLocalAgreesWithAllBranches checks local optimization is a
// faithful restriction of the global one: optimizing the local set must
// improve the likelihood, never corrupt the tree, and fall back to the
// global optimizer for a root edge.
func TestOptimizeLocalAgreesWithAllBranches(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 10, Length: 400, Seed: 8, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	eng, _ := NewEngine(data, NewJC69(), SingleRate())
	tree, _ := NewRandomTree(data.Names, rand.New(rand.NewSource(6)))
	before := eng.LogLikelihood(tree)

	v := tree.AppendNNIMoves(nil)[0].Edge
	after := eng.OptimizeLocal(tree, v, 1, 3)
	if after < before {
		t.Errorf("OptimizeLocal worsened the likelihood: %v -> %v", before, after)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("OptimizeLocal corrupted the tree: %v", err)
	}
	// The global optimizer can only do at least as well from here.
	full := eng.OptimizeAllBranches(tree, 3)
	if full < after {
		t.Errorf("OptimizeAllBranches after OptimizeLocal regressed: %v -> %v", after, full)
	}
	// Root fallback: the root has no edge, so the call degrades to the
	// global optimizer rather than failing.
	if got := eng.OptimizeLocal(tree, tree.Root, 1, 1); got < full {
		t.Errorf("OptimizeLocal(root) = %v, want >= %v", got, full)
	}
}

// TestSearchIncrementalAndFullRefreshBothClimb runs the search: it must
// improve from the starting tree to a valid topology, and the reported
// likelihood must be byte-identical to a from-scratch recomputation of the
// final tree.
func TestSearchIncrementalAndFullRefreshBothClimb(t *testing.T) {
	_, aln, _ := Simulate(SimulateOptions{Taxa: 10, Length: 600, Seed: 44, MeanBranchLength: 0.1})
	data, _ := Compress(aln)
	opts := SearchOptions{SmoothingRounds: 2, MaxRounds: 4, Epsilon: 0.01, Seed: 5}

	t.Run("incremental", func(t *testing.T) {
		eng, _ := NewEngine(data, NewJC69(), SingleRate())
		res, err := eng.Search(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogLikelihood < res.StartLogLik {
			t.Errorf("search worsened the likelihood: %v -> %v", res.StartLogLik, res.LogLikelihood)
		}
		if err := res.Tree.Validate(); err != nil {
			t.Fatalf("search produced an invalid tree: %v", err)
		}
		fresh, _ := NewEngine(data, NewJC69(), SingleRate())
		if got := fresh.LogLikelihood(res.Tree); got != res.LogLikelihood {
			t.Errorf("reported likelihood %v != from-scratch recomputation %v", res.LogLikelihood, got)
		}
	})
}

// caterpillarTree builds the maximally deep tree over the taxa,
// ((((t0,t1),t2),t3)...), with every branch at the given length: tip i sits
// at depth len(names)-i (tip 0 shares the deepest cherry with tip 1).
func caterpillarTree(names []string, length float64) *Tree {
	t := &Tree{Taxa: names}
	for i, name := range names {
		t.Nodes = append(t.Nodes, &Node{ID: i, Name: name, Taxon: i, Length: length})
	}
	cur := t.Nodes[0]
	for i := 1; i < len(names); i++ {
		in := &Node{ID: len(t.Nodes), Taxon: -1, Length: length, Children: []*Node{cur, t.Nodes[i]}}
		cur.Parent, t.Nodes[i].Parent = in, in
		t.Nodes = append(t.Nodes, in)
		cur = in
	}
	t.Root = cur
	return t
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestStampsAndCleanMarksAreSound pins what the path-exact invalidation
// promises: whatever mix of length changes, NNI apply/revert and local
// optimization the engine has seen, every out vector whose stamp is current
// and every down vector marked clean holds exactly the bits (values and
// scalers) a fresh engine computes for the tree as it stands. The check reads
// the engine's state without settling anything, so vectors left stale by the
// on-demand traversals stay stale across steps. The tree is deep enough for
// the vectors near the root to rescale.
func TestStampsAndCleanMarksAreSound(t *testing.T) {
	for _, cfg := range incrementalConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			_, aln, err := Simulate(SimulateOptions{Taxa: 170, Length: 40, Seed: 31, MeanBranchLength: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			data, err := Compress(aln)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewEngine(data, cfg.model, cfg.rates)
			if err != nil {
				t.Fatal(err)
			}
			tree := caterpillarTree(data.Names, 1.2)
			rng := rand.New(rand.NewSource(17))

			var outChecked, downChecked int
			rescaled := false
			check := func(step int, op string) {
				t.Helper()
				fresh, err := NewEngine(data, cfg.model, cfg.rates)
				if err != nil {
					t.Fatal(err)
				}
				fresh.Refresh(tree)
				for _, n := range tree.Nodes {
					id := n.ID
					if n.Parent != nil && inc.outEpoch[id] == inc.treeEpoch {
						outChecked++
						if !sameBits(inc.outVec(id), fresh.outVec(id)) || !sameBits(inc.outScaleVec(id), fresh.outScaleVec(id)) {
							t.Fatalf("step %d (%s): out vector of node %d carries a current stamp but differs from a fresh engine's", step, op, id)
						}
					}
					if !n.IsTip() && !inc.downDirty[id] {
						downChecked++
						if !sameBits(inc.downVec(id), fresh.downVec(id)) || !sameBits(inc.downScaleVec(id), fresh.downScaleVec(id)) {
							t.Fatalf("step %d (%s): down vector of node %d is marked clean but differs from a fresh engine's", step, op, id)
						}
					}
				}
				for _, s := range fresh.sclOut {
					rescaled = rescaled || s != 0
				}
			}

			inc.LogLikelihood(tree)
			check(0, "initial")
			for step := 1; step <= 60; step++ {
				var op string
				switch rng.Intn(5) {
				case 0:
					edges := tree.Edges()
					n := edges[rng.Intn(len(edges))]
					n.Length = MinBranchLength + rng.Float64()*1.5
					inc.InvalidateEdge(n)
					op = "length"
				case 1:
					moves := tree.AppendNNIMoves(nil)
					m := moves[rng.Intn(len(moves))]
					m.Apply()
					inc.InvalidateNode(m.Edge)
					op = "nni"
				case 2:
					// One search candidate, rejected: apply, score the
					// neighborhood, revert topology and lengths.
					moves := tree.AppendNNIMoves(nil)
					m := moves[rng.Intn(len(moves))]
					m.Apply()
					inc.InvalidateNode(m.Edge)
					inc.snapshotLengths(inc.collectLocalEdges(tree, m.Edge, nniRadius))
					inc.optimizeEdges(tree, inc.savedNodes, 2)
					m.Apply()
					inc.InvalidateNode(m.Edge)
					inc.restoreLengths()
					op = "candidate-rejected"
				case 3:
					edges := tree.Edges()
					inc.optimizeEdges(tree, inc.collectLocalEdges(tree, edges[rng.Intn(len(edges))], nniRadius), 2)
					op = "optimize-local"
				default:
					// Optimize one edge and stop there: the root path stays
					// dirty, the stamps on it stay current.
					edges := tree.Edges()
					inc.optimizeEdge(tree, edges[rng.Intn(len(edges))])
					op = "optimize-edge"
				}
				check(step, op)
			}
			if outChecked == 0 || downChecked == 0 {
				t.Fatalf("vacuous run: %d current out vectors and %d clean down vectors checked", outChecked, downChecked)
			}
			if !rescaled {
				t.Error("the tree was not deep enough to rescale any out vector")
			}
		})
	}
}

// TestOptimizeLocalWorkIndependentOfDepth is the work bound the partial
// traversals exist for: re-optimizing the branches around a rearranged edge
// costs a constant number of conditional-vector kernels per branch, however
// far below the root the edge sits.
func TestOptimizeLocalWorkIndependentOfDepth(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 30, Length: 200, Seed: 9, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	tree := caterpillarTree(data.Names, 0.1)
	eng.OptimizeAllBranches(tree, 1)
	for _, depth := range []int{6, 14, 26} {
		// The inner node at that depth: walk down the spine from the root.
		v := tree.Root
		for d := 0; d < depth; d++ {
			v = v.Children[0]
		}
		// The state the search meets: the neighborhood was just visited,
		// then the candidate rearrangement is applied.
		eng.OptimizeLocal(tree, v, nniRadius, 1)
		move := NNIMove{Edge: v, ChildIndex: 0}
		move.Apply()
		eng.InvalidateNode(v)
		edges := len(eng.collectLocalEdges(tree, v, nniRadius))
		before := eng.Stats
		eng.OptimizeLocal(tree, v, nniRadius, 1)
		out := eng.Stats.OutviewCalls - before.OutviewCalls
		down := eng.Stats.NewviewCalls - before.NewviewCalls
		if edges != 5 {
			t.Fatalf("depth %d: local set has %d edges, want the 5 of the NNI quartet", depth, edges)
		}
		// One out vector per stale edge, one down vector per edge whose
		// subtree changed, plus the closing LogLikelihood's root path.
		if out > 2*edges {
			t.Errorf("depth %d: %d out-vector kernels for %d edges", depth, out, edges)
		}
		if down > 2*edges+depth+1 {
			t.Errorf("depth %d: %d newview kernels for %d edges at that depth", depth, down, edges)
		}
		move.Apply() // back to the caterpillar for the next depth
		eng.InvalidateNode(v)
	}
}
