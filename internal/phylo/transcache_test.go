package phylo

import (
	"math/rand"
	"testing"
)

// equivalenceCase is one (model, rates) configuration the cache must serve
// exactly.
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

// TestCachedTransitionsMatchUncached asserts that the cache never changes a
// matrix: over a stream of lengths that overflows maxCacheEntries twice —
// new lengths interleaved with revisits, the way a search replays its tree's
// branches — every entry get returns holds exactly the bits fillTransition
// computes for that length from the model. That includes the entry a caller
// is still holding while the next get clears the map and swaps the slab
// (Newview holds its left matrices while it fetches the right ones).
func TestCachedTransitionsMatchUncached(t *testing.T) {
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, rates := tc.model(t), tc.rates(t).Rates
			var c transCache
			c.reset(model, rates)
			fresh := make([]float64, len(rates)*flatMatSize)
			check := func(what string, b float64, got []float64) {
				t.Helper()
				fillTransition(fresh, model, rates, b)
				if !sameBits(got, fresh) {
					t.Fatalf("%s: entry for length %v differs from a fresh fill", what, b)
				}
			}
			rng := rand.New(rand.NewSource(12))
			var lengths []float64
			var held []float64
			var heldB float64
			overflows, hits := 0, 0
			for i := 0; overflows < 2 || i < 2*maxCacheEntries+100; i++ {
				var b float64
				if len(lengths) > 0 && rng.Intn(4) == 0 {
					b = lengths[rng.Intn(len(lengths))]
				} else {
					b = MinBranchLength + rng.Float64()*2
					lengths = append(lengths, b)
				}
				before := len(c.probs)
				_, cached := c.probs[b]
				p := c.get(b)
				check("returned", b, p)
				if cached {
					hits++
					if again := c.get(b); &again[0] != &p[0] {
						t.Fatalf("repeat lookup of %v returned a different entry", b)
					}
				}
				if len(c.probs) < before {
					overflows++
					lengths = lengths[:0] // revisit only lengths of the current cycle
				}
				if held != nil {
					check("held across the next get", heldB, held)
				}
				held, heldB = p, b
				if len(c.probs) > maxCacheEntries {
					t.Fatalf("cache holds %d entries, bound %d", len(c.probs), maxCacheEntries)
				}
			}
			if hits == 0 {
				t.Fatal("the stream never revisited a cached length")
			}
		})
	}
}

// TestBranchLengthChangeBypassesStaleEntry verifies the invalidation story:
// the branch length is the cache key, so changing a length must immediately
// be reflected in the likelihood (no stale matrix reuse), and flushing the
// cache must not change any value.
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

	// Restoring the length restores the exact original value, and an
	// explicit flush changes nothing.
	edge.Length = old
	eng.InvalidateEdge(edge)
	if got := eng.LogLikelihood(tree); got != ll0 {
		t.Errorf("restored tree: %v != original %v", got, ll0)
	}
	eng.InvalidateTransitions()
	if n := len(eng.trans.probs); n != 0 {
		t.Errorf("InvalidateTransitions left %d entries", n)
	}
	if got := eng.LogLikelihood(tree); got != ll0 {
		t.Errorf("after flush: %v != original %v", got, ll0)
	}
}

// TestCacheBoundIsEnforced drives more distinct branch lengths through the
// engine than maxCacheEntries and checks the cache never exceeds its bound.
func TestCacheBoundIsEnforced(t *testing.T) {
	data := twoTaxonData(t, "ACGTACGTACGTACGT", "ACGAACGTACTTACGG")
	eng, err := NewEngine(data, NewJC69(), SingleRate())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCacheEntries+50; i++ {
		b := 0.01 + float64(i)*1e-5
		tree := twoTaxonTree(b, b/2)
		eng.LogLikelihood(tree)
		if n := len(eng.trans.probs); n > maxCacheEntries {
			t.Fatalf("cache grew to %d entries (bound %d)", n, maxCacheEntries)
		}
	}
}
