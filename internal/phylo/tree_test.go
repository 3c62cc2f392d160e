package phylo

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func taxaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	return names
}

func TestNewRandomTreeStructure(t *testing.T) {
	for _, n := range []int{3, 4, 8, 20, 42} {
		tree, err := NewRandomTree(taxaNames(n), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("n=%d: invalid tree: %v", n, err)
		}
		if len(tree.Nodes) != 2*n-1 {
			t.Errorf("n=%d: %d nodes, want %d (unrooted binary tree)", n, len(tree.Nodes), 2*n-1)
		}
		if len(tree.Edges()) != 2*n-2 {
			t.Errorf("n=%d: %d edges, want %d", n, len(tree.Edges()), 2*n-2)
		}
		if got := len(tree.Tips()); got != n {
			t.Errorf("n=%d: %d tips", n, got)
		}
	}
	if _, err := NewRandomTree(taxaNames(2), rand.New(rand.NewSource(1))); err == nil {
		t.Errorf("trees need at least 3 taxa")
	}
}

func TestRandomTreesDifferBySeed(t *testing.T) {
	names := taxaNames(12)
	a, _ := NewRandomTree(names, rand.New(rand.NewSource(1)))
	b, _ := NewRandomTree(names, rand.New(rand.NewSource(2)))
	c, _ := NewRandomTree(names, rand.New(rand.NewSource(1)))
	if RobinsonFoulds(a, c) != 0 {
		t.Errorf("same seed should reproduce the same topology")
	}
	if RobinsonFoulds(a, b) == 0 {
		t.Errorf("different seeds should generally give different topologies")
	}
}

func TestCloneIsIndependentCopy(t *testing.T) {
	tree, _ := NewRandomTree(taxaNames(10), rand.New(rand.NewSource(5)))
	cp := tree.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if RobinsonFoulds(tree, cp) != 0 {
		t.Errorf("clone should have identical topology")
	}
	// Mutating the clone must not affect the original.
	cp.Edges()[0].Length = 42
	moves := cp.AppendNNIMoves(nil)
	moves[0].Apply()
	if tree.Edges()[0].Length == 42 {
		t.Errorf("branch length change leaked into the original")
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestNewickRoundTrip(t *testing.T) {
	tree, _ := NewRandomTree(taxaNames(9), rand.New(rand.NewSource(3)))
	nw := tree.Newick()
	if !strings.HasSuffix(nw, ";") {
		t.Fatalf("newick must end with ';': %q", nw)
	}
	parsed, err := ParseNewick(nw)
	if err != nil {
		t.Fatalf("parsing produced newick failed: %v", err)
	}
	if RobinsonFoulds(tree, parsed) != 0 {
		t.Errorf("newick round trip changed the topology")
	}
	// Branch lengths should survive within formatting precision.
	var sumA, sumB float64
	for _, e := range tree.Edges() {
		sumA += e.Length
	}
	for _, e := range parsed.Edges() {
		sumB += e.Length
	}
	if diff := sumA - sumB; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("total branch length changed: %v vs %v", sumA, sumB)
	}
}

func TestParseNewickErrors(t *testing.T) {
	bad := []string{
		"",
		"(a,b)",            // missing semicolon
		"(a,(b,c);",        // unbalanced
		"(a,b,c,d);",       // non-binary
		"(a:x,b:0.1);",     // bad branch length
		"((a,b),(c,d));;x", // trailing garbage
		"(,b);",            // empty name
		"((a,a),b);",       // duplicate taxon
	}
	for _, s := range bad {
		if _, err := ParseNewick(s); err == nil {
			t.Errorf("ParseNewick(%q) should fail", s)
		}
	}
}

func TestParseNewickSimple(t *testing.T) {
	tree, err := ParseNewick("((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.06);")
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumTaxa() != 4 {
		t.Errorf("taxa = %d", tree.NumTaxa())
	}
	splits := tree.Bipartitions()
	if !splits["A,B"] && !splits["C,D"] {
		t.Errorf("expected the AB|CD split, got %v", splits)
	}
}

func TestSiblingAndTips(t *testing.T) {
	tree, _ := ParseNewick("((A:0.1,B:0.2):0.05,(C:0.3,D:0.4):0.06);")
	if tree.Root.Sibling() != nil {
		t.Errorf("root has no sibling")
	}
	for _, tip := range tree.Tips() {
		if !tip.IsTip() {
			t.Errorf("tip %s not recognized as tip", tip.Name)
		}
		sib := tip.Sibling()
		if sib == nil {
			t.Errorf("tip %s should have a sibling", tip.Name)
		}
	}
}

func TestRobinsonFouldsKnownDistance(t *testing.T) {
	a, _ := ParseNewick("((A:0.1,B:0.1):0.1,(C:0.1,D:0.1):0.1);")
	b, _ := ParseNewick("((A:0.1,C:0.1):0.1,(B:0.1,D:0.1):0.1);")
	if d := RobinsonFoulds(a, a.Clone()); d != 0 {
		t.Errorf("distance to self = %d", d)
	}
	// Four-taxon trees have one internal split each; different splits give
	// distance 2.
	if d := RobinsonFoulds(a, b); d != 2 {
		t.Errorf("RF(AB|CD, AC|BD) = %d, want 2", d)
	}
}

func TestNNIMovesEnumerateAndInvert(t *testing.T) {
	tree, _ := NewRandomTree(taxaNames(10), rand.New(rand.NewSource(8)))
	moves := tree.AppendNNIMoves(nil)
	// An unrooted binary tree with n taxa has n-3 internal edges and two NNI
	// moves per edge; the rooted representation hides one internal edge at
	// the root, so allow for that.
	if len(moves) < 2*(10-4) || len(moves) > 2*(10-3) {
		t.Errorf("%d NNI moves for 10 taxa", len(moves))
	}
	original := tree.Clone()
	for i, m := range moves {
		m.Apply()
		if err := tree.Validate(); err != nil {
			t.Fatalf("move %d broke the tree: %v", i, err)
		}
		m.Apply() // undo
		if err := tree.Validate(); err != nil {
			t.Fatalf("undoing move %d broke the tree: %v", i, err)
		}
		if RobinsonFoulds(tree, original) != 0 {
			t.Fatalf("move %d + undo did not restore the topology", i)
		}
	}
}

func TestNNIMoveChangesTopology(t *testing.T) {
	tree, _ := NewRandomTree(taxaNames(8), rand.New(rand.NewSource(4)))
	original := tree.Clone()
	changed := 0
	for _, m := range tree.AppendNNIMoves(nil) {
		m.Apply()
		if RobinsonFoulds(tree, original) > 0 {
			changed++
		}
		m.Apply()
	}
	if changed == 0 {
		t.Errorf("no NNI move changed the topology")
	}
}

// Property: random trees over any taxon count are structurally valid and
// cover all taxa.
func TestPropertyRandomTreeValid(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%30) + 3
		tree, err := NewRandomTree(taxaNames(n), rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return tree.Validate() == nil && len(tree.Nodes) == 2*n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of NNI moves keeps the tree valid and keeps the
// taxon set intact.
func TestPropertyNNIPreservesValidity(t *testing.T) {
	f := func(seed int64, moveIdx []uint8) bool {
		tree, err := NewRandomTree(taxaNames(12), rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for _, raw := range moveIdx {
			moves := tree.AppendNNIMoves(nil)
			if len(moves) == 0 {
				return false
			}
			moves[int(raw)%len(moves)].Apply()
			if tree.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
