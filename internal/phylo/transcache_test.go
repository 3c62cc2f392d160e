package phylo

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// equivalenceCase is one (model, rates) configuration the per-node store must
// serve exactly.
type equivalenceCase struct {
	name  string
	model func(t *testing.T) Model
	rates func(t *testing.T) RateCategories
}

func equivalenceCases() []equivalenceCase {
	jc := func(t *testing.T) Model { return NewJC69() }
	gtr := func(t *testing.T) Model {
		g, err := NewGTR([6]float64{1.5, 3, 0.7, 1.2, 4, 1}, Frequencies{0.28, 0.22, 0.24, 0.26})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	single := func(t *testing.T) RateCategories { return SingleRate() }
	gamma4 := func(t *testing.T) RateCategories {
		rc, err := DiscreteGamma(0.7, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	return []equivalenceCase{
		{"JC69/single", jc, single},
		{"JC69/gamma4", jc, gamma4},
		{"GTR/single", gtr, single},
		{"GTR/gamma4", gtr, gamma4},
	}
}

// TestCachedTransitionsMatchUncached asserts that the per-node store never
// changes a matrix: every node sees its own stream of lengths — new ones,
// revisits of earlier ones, and the restore-to-previous a rejected NNI makes —
// and lengths its neighbours currently hold — and every slot get returns
// holds exactly the bits fillTransition computes for that length from the
// model.
func TestCachedTransitionsMatchUncached(t *testing.T) {
	const nodes = 7
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, rates := tc.model(t), tc.rates(t).Rates
			c := newTransCache(model, rates, nodes)
			fresh := make([]float64, len(rates)*flatMatSize)
			rng := rand.New(rand.NewSource(12))
			var seen [nodes][]float64 // lengths each node was given, in order
			refills := 0
			for i := 0; i < 4000; i++ {
				id := rng.Intn(nodes)
				var b float64
				switch n := len(seen[id]); {
				case n >= 2 && rng.Intn(4) == 0:
					b = seen[id][n-2] // restore the previous length
				case n > 0 && rng.Intn(4) == 0:
					b = seen[id][rng.Intn(n)] // revisit
				case n > 0 && rng.Intn(4) == 0:
					b = seen[id][n-1] // unchanged: the tag matches
				case i > nodes && rng.Intn(4) == 0:
					if b = c.filled[rng.Intn(nodes)]; math.IsNaN(b) { // a length another node holds
						b = 0.1
					}
				default:
					b = rng.Float64() * 2 // [0, 2): includes lengths below MinBranchLength
				}
				if c.filled[id] != b {
					refills++
				}
				seen[id] = append(seen[id], b)
				got := c.get(id, b)
				fillTransition(fresh, model, rates, b)
				if !sameBits(got, fresh) {
					t.Fatalf("get %d: node %d's slot for length %v differs from a fresh fill", i, id, b)
				}
				if c.filled[id] != b {
					t.Fatalf("get %d: node %d tagged %v after a get for %v", i, id, c.filled[id], b)
				}
			}
			if refills == 0 || refills == 4000 {
				t.Fatalf("%d of 4000 gets refilled: the stream must mix tag hits and misses", refills)
			}
		})
	}
}

// TestNodeSlotsAreDistinct holds what lets Newview keep its left child's
// matrices while it fetches the right child's: two nodes never share a slot,
// even at the same length, and a slot fetched for one node is not written by
// any number of gets on the others.
func TestNodeSlotsAreDistinct(t *testing.T) {
	const nodes = 9
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, rates := tc.model(t), tc.rates(t).Rates
			c := newTransCache(model, rates, nodes)
			a, b := c.get(3, 0.25), c.get(4, 0.25)
			if &a[0] == &b[0] {
				t.Fatal("nodes 3 and 4 share a backing slice at the same length")
			}
			if !sameBits(a, b) {
				t.Fatal("the same length gave two nodes different matrices")
			}
			held := append([]float64(nil), a...)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 10000; i++ {
				id := rng.Intn(nodes - 1)
				if id >= 3 {
					id++ // every node but 3
				}
				c.get(id, rng.Float64()*3)
			}
			if !sameBits(a, held) {
				t.Fatal("node 3's slot changed under gets on other nodes")
			}
			if again := c.get(3, 0.25); &again[0] != &a[0] {
				t.Fatal("node 3's slot moved")
			}
		})
	}
}

// TestEngineAlternatesBetweenTrees evaluates one engine on two different
// trees in turn. Node IDs coincide across the trees while lengths and
// topology differ, so a slot tagged for one tree must never serve the other
// unless the length is the same bits — every value must equal a fresh
// engine's.
func TestEngineAlternatesBetweenTrees(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 9, Length: 240, Seed: 17, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, rates := tc.model(t), tc.rates(t)
			var trees [2]*Tree
			var want [2]float64
			for i := range trees {
				tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(int64(30+i))))
				if err != nil {
					t.Fatal(err)
				}
				for j, n := range tree.Edges() {
					n.Length = 0.02 * float64(1+(j+3*i)%7)
				}
				fresh, err := NewEngine(data, model, rates)
				if err != nil {
					t.Fatal(err)
				}
				trees[i], want[i] = tree, fresh.LogLikelihood(tree)
			}
			if want[0] == want[1] {
				t.Fatal("the two trees must differ in likelihood")
			}
			eng, err := NewEngine(data, model, rates)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for i, tree := range trees {
					if got := eng.LogLikelihood(tree); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("round %d tree %d: %v, a fresh engine gives %v", round, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestTreeOfWrongNodeCountIsRefused: the per-node blocks are sized once for
// the 2·NumTaxa − 1 nodes of a tree over the alignment, so a tree with one
// node more is refused by name at every way in rather than indexing past a
// block.
func TestTreeOfWrongNodeCountIsRefused(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 6, Length: 60, Seed: 3, MeanBranchLength: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tree.Nodes = append(tree.Nodes, &Node{ID: len(tree.Nodes), Taxon: -1})
	const want = "tree has 12 nodes, the engine's 6-taxon alignment takes trees of exactly 11"
	refused := func(name string, call func(e *Engine) any) {
		t.Helper()
		eng, err := NewEngine(data, NewJC69(), SingleRate())
		if err != nil {
			t.Fatal(err)
		}
		var got any
		func() {
			defer func() {
				if r := recover(); r != nil {
					got = r
				}
			}()
			got = call(eng)
		}()
		if err, ok := got.(error); !ok || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, got, want)
		}
	}
	refused("LogLikelihood", func(e *Engine) any { return e.LogLikelihood(tree) })
	refused("Refresh", func(e *Engine) any { e.Refresh(tree); return nil })
	refused("SearchInto", func(e *Engine) any {
		return e.SearchInto(context.Background(), tree, DefaultSearchOptions(), &SearchResult{})
	})
}

// TestBranchLengthChangeBypassesStaleEntry verifies the invalidation story at
// engine level: the branch length is the tag, so changing a length must
// immediately be reflected in the likelihood (no stale matrix reuse), and
// restoring it must restore the exact original value.
func TestBranchLengthChangeBypassesStaleEntry(t *testing.T) {
	_, aln, err := Simulate(SimulateOptions{Taxa: 8, Length: 300, Seed: 5, MeanBranchLength: 0.1})
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
	tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	ll0 := eng.LogLikelihood(tree)

	edge := tree.Edges()[0]
	old := edge.Length
	edge.Length = old * 3.5
	eng.InvalidateEdge(edge) // direct mutations must be reported (incremental.go)
	llChanged := eng.LogLikelihood(tree)
	if llChanged == ll0 {
		t.Fatalf("changing a branch length did not change the likelihood (stale cache entry?)")
	}

	// A fresh engine agrees with the warm-cached one on the modified tree.
	fresh, _ := NewEngine(data, NewJC69(), SingleRate())
	if want := fresh.LogLikelihood(tree); want != llChanged {
		t.Errorf("warm cache %v != fresh engine %v", llChanged, want)
	}

	// Restoring the length restores the exact original value.
	edge.Length = old
	eng.InvalidateEdge(edge)
	if got := eng.LogLikelihood(tree); got != ll0 {
		t.Errorf("restored tree: %v != original %v", got, ll0)
	}
}
