package phylo

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
)

// outVectorGolden holds FNV-64a digests of the engine's conditional-vector
// blocks, written by the commit that still had a separate outer-vector loop
// body. The outer vectors now come out of newviewBody; the file is what says
// they are the same bits. It is compared, never regenerated: a difference is
// a changed kernel, not noise.
const outVectorGolden = "testdata/outvec_golden.json"

// digest hashes the IEEE bits of the given blocks, in order.
func digest(blocks ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, blk := range blocks {
		for _, v := range blk {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// downDigest digests the down blocks as they were laid out when the golden
// file was written, with a row for every node: the tips' rows, all zeros and
// never written, came first.
func downDigest(e *Engine) string {
	return digest(make([]float64, e.nTaxa*e.vecLen), e.clvDown, make([]float64, e.nTaxa*e.nPat), e.sclDown)
}

// outVectorDigests drives one engine through the three ways an outer vector
// gets computed — the pre-order sweep of Refresh, ensureOut repairing one
// root-to-tip path after a length change elsewhere, and a short search — and
// digests the vector blocks after each. It reports whether any out vector
// rescaled and fails unless the tree has all four kernel set-ups: tip and
// inner siblings, root and non-root parents.
func outVectorDigests(t *testing.T, name string, model Model, rates RateCategories, taxa, length int, into map[string]string) (rescaled bool) {
	t.Helper()
	_, aln, err := Simulate(SimulateOptions{Taxa: taxa, Length: length, Seed: 9, MeanBranchLength: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(aln)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(data, model, rates)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewRandomTree(data.Names, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var tipSib, innerSib, rootParent, innerParent int
	deepest, depth := tree.Root, 0
	for _, v := range tree.Edges() {
		if v.Sibling().IsTip() {
			tipSib++
		} else {
			innerSib++
		}
		if v.Parent == tree.Root {
			rootParent++
		} else {
			innerParent++
		}
		d := 0
		for n := v; n.Parent != nil; n = n.Parent {
			d++
		}
		if v.IsTip() && d > depth {
			deepest, depth = v, d
		}
	}
	if tipSib == 0 || innerSib == 0 || rootParent == 0 || innerParent == 0 {
		t.Fatalf("%s: tree lacks a kernel set-up: %d tip / %d inner siblings, %d root / %d inner parents",
			name, tipSib, innerSib, rootParent, innerParent)
	}

	eng.Refresh(tree)
	into[name+"/refresh/out"] = digest(eng.clvOut, eng.sclOut)
	into[name+"/refresh/down"] = downDigest(eng)
	for _, s := range eng.sclOut {
		rescaled = rescaled || s != 0
	}

	// A length change on the other side of the root stales every out vector
	// on the path to the deepest tip; ensureOut recomputes exactly those.
	top := deepest
	for top.Parent != tree.Root {
		top = top.Parent
	}
	other := top.Sibling()
	other.Length *= 1.75
	eng.InvalidateEdge(other)
	before := eng.Stats.OutviewCalls
	eng.ensureOut(tree, deepest)
	if got := eng.Stats.OutviewCalls - before; got != depth {
		t.Fatalf("%s: ensureOut ran %d outer-vector kernels on a path of %d", name, got, depth)
	}
	into[name+"/path/out"] = digest(eng.clvOut, eng.sclOut)

	var res SearchResult
	opts := SearchOptions{SmoothingRounds: 2, MaxRounds: 3, Epsilon: 0.01}
	if err := eng.SearchInto(context.Background(), tree, opts, &res); err != nil {
		t.Fatal(err)
	}
	into[name+"/search/out"] = digest(eng.clvOut, eng.sclOut)
	into[name+"/search/down"] = downDigest(eng)
	into[name+"/search/logL"] = fmt.Sprintf("%016x", math.Float64bits(res.LogLikelihood))
	lengths := make([]float64, 0, len(tree.Nodes))
	for _, n := range tree.Nodes {
		lengths = append(lengths, n.Length)
	}
	h := fnv.New64a()
	h.Write([]byte(tree.Newick()))
	into[name+"/search/tree"] = fmt.Sprintf("%016x", h.Sum64()) + digest(lengths)
	return rescaled
}

// allOutVectorDigests is the full grid: both model families × single rate and
// Gamma4 on 20 taxa, plus a GTR+Γ4 tree deep enough to rescale.
func allOutVectorDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, cfg := range incrementalConfigs(t) {
		outVectorDigests(t, cfg.name, cfg.model, cfg.rates, 20, 300, got)
	}
	big := incrementalConfigs(t)[3]
	if !outVectorDigests(t, "rescaled_240_taxa", big.model, big.rates, 240, 40, got) {
		t.Fatal("the 240-taxon tree never rescaled an out vector; the case covers nothing")
	}
	return got
}

func TestOutVectorsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(outVectorGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := allOutVectorDigests(t)
	if len(got) != len(want) {
		t.Errorf("%d digests computed, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
	}
}
