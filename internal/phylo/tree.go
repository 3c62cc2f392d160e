package phylo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Node is one vertex of a phylogenetic tree. Trees are stored rooted (the
// root carries two children and no parent); because all models in this
// package are time-reversible, the root placement does not affect the
// likelihood and merely marks one edge of the underlying unrooted tree.
type Node struct {
	// ID indexes the node within Tree.Nodes and is stable across topology
	// changes; likelihood buffers are keyed by it.
	ID int
	// Name is the taxon name for tips, empty for internal nodes.
	Name string
	// Taxon is the row index into the PatternAlignment for tips, -1 for
	// internal nodes.
	Taxon int
	// Parent is nil for the root.
	Parent *Node
	// Children has two entries for internal nodes (including the root) and
	// none for tips.
	Children []*Node
	// Length is the branch length (expected substitutions per site) of the
	// edge to the parent; unused for the root.
	Length float64
}

// IsTip reports whether the node is a leaf.
func (n *Node) IsTip() bool { return len(n.Children) == 0 }

// Sibling returns the other child of this node's parent, or nil for the root.
func (n *Node) Sibling() *Node {
	if n.Parent == nil {
		return nil
	}
	for _, c := range n.Parent.Children {
		if c != n {
			return c
		}
	}
	return nil
}

// replaceChild swaps child old for new in n's child list.
func (n *Node) replaceChild(old, new *Node) {
	for i, c := range n.Children {
		if c == old {
			n.Children[i] = new
			return
		}
	}
	panic("phylo: replaceChild: old child not found")
}

// Tree is a rooted binary phylogenetic tree over a fixed set of taxa.
type Tree struct {
	Root  *Node
	Nodes []*Node // tips first (IDs 0..nTaxa-1), then internal nodes
	Taxa  []string
}

// NumTaxa returns the number of tips.
func (t *Tree) NumTaxa() int { return len(t.Taxa) }

// Tips returns the leaf nodes in taxon order.
func (t *Tree) Tips() []*Node { return t.Nodes[:len(t.Taxa)] }

// Edges returns every node that has a parent; each represents one edge of
// the tree (the edge to its parent).
func (t *Tree) Edges() []*Node {
	out := make([]*Node, 0, len(t.Nodes)-1)
	for _, n := range t.Nodes {
		if n.Parent != nil {
			out = append(out, n)
		}
	}
	return out
}

// DefaultBranchLength is the starting branch length for new edges.
const DefaultBranchLength = 0.1

// NewRandomTree builds a random topology over the taxa by stepwise random
// addition: taxa are joined in a random order, each new tip attached to a
// uniformly chosen existing edge. This is the classic randomized starting
// tree of maximum-likelihood searches.
func NewRandomTree(taxa []string, rng *rand.Rand) (*Tree, error) {
	n := len(taxa)
	if n < 3 {
		return nil, fmt.Errorf("phylo: need at least 3 taxa to build a tree, got %d", n)
	}
	t := &Tree{Taxa: append([]string(nil), taxa...)}
	// Create tips.
	for i, name := range taxa {
		t.Nodes = append(t.Nodes, &Node{ID: i, Name: name, Taxon: i, Length: DefaultBranchLength})
	}
	nextID := n
	newInternal := func() *Node {
		node := &Node{ID: nextID, Taxon: -1, Length: DefaultBranchLength}
		nextID++
		t.Nodes = append(t.Nodes, node)
		return node
	}
	// Random insertion order.
	order := rng.Perm(n)
	// Start with the first two tips joined at the root.
	root := newInternal()
	a, b := t.Nodes[order[0]], t.Nodes[order[1]]
	root.Children = []*Node{a, b}
	a.Parent, b.Parent = root, root
	t.Root = root
	// Insert the remaining tips at random edges.
	for _, ti := range order[2:] {
		tip := t.Nodes[ti]
		edges := t.Edges()
		target := edges[rng.Intn(len(edges))]
		parent := target.Parent
		mid := newInternal()
		// Splice: parent -> mid -> {target, tip}.
		mid.Parent = parent
		mid.Length = target.Length / 2
		target.Length /= 2
		parent.replaceChild(target, mid)
		target.Parent = mid
		tip.Parent = mid
		mid.Children = []*Node{target, tip}
	}
	return t, t.Validate()
}

// Validate checks structural invariants: binary internal nodes, consistent
// parent/child pointers, every taxon index present exactly once, named tips,
// non-negative branch lengths, no unreachable nodes.
func (t *Tree) Validate() error {
	_, err := t.validate(nil, make([]bool, len(t.Taxa)))
	return err
}

// validate is Validate on caller-owned scratch, so the check at the top of
// every search allocates nothing: stack is the traversal stack, returned for
// reuse, and seen holds one cleared mark per taxon.
func (t *Tree) validate(stack []*Node, seen []bool) ([]*Node, error) {
	if t.Root == nil {
		return stack, fmt.Errorf("phylo: tree has no root")
	}
	if t.Root.Parent != nil {
		return stack, fmt.Errorf("phylo: root has a parent")
	}
	stack = append(stack[:0], t.Root)
	visited, tips := 0, 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visited++
		if n.IsTip() {
			if n.Name == "" {
				return stack, fmt.Errorf("phylo: tip %d has no name", n.ID)
			}
			if n.Taxon < 0 || n.Taxon >= len(t.Taxa) {
				return stack, fmt.Errorf("phylo: tip %q has taxon index %d outside [0,%d)", n.Name, n.Taxon, len(t.Taxa))
			}
			if seen[n.Taxon] {
				return stack, fmt.Errorf("phylo: taxon %q appears twice", n.Name)
			}
			if n.ID < 0 || n.ID >= len(t.Taxa) {
				return stack, fmt.Errorf("phylo: tip %q has ID %d outside [0,%d)", n.Name, n.ID, len(t.Taxa))
			}
			seen[n.Taxon] = true
			tips++
			continue
		}
		if len(n.Children) != 2 {
			return stack, fmt.Errorf("phylo: internal node %d has %d children, want 2", n.ID, len(n.Children))
		}
		if n.ID < len(t.Taxa) || n.ID >= 2*len(t.Taxa)-1 {
			return stack, fmt.Errorf("phylo: internal node %d has an ID outside [%d,%d)", n.ID, len(t.Taxa), 2*len(t.Taxa)-1)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return stack, fmt.Errorf("phylo: node %d has a child with a mismatched parent pointer", n.ID)
			}
			if c.Length < 0 {
				return stack, fmt.Errorf("phylo: negative branch length on node %d", c.ID)
			}
			stack = append(stack, c)
		}
	}
	if tips != len(t.Taxa) {
		return stack, fmt.Errorf("phylo: tree covers %d taxa, want %d", tips, len(t.Taxa))
	}
	if visited != len(t.Nodes) {
		return stack, fmt.Errorf("phylo: %d nodes reachable from the root, %d allocated", visited, len(t.Nodes))
	}
	return stack, nil
}

// Clone returns a deep copy of the tree (new Node objects, same IDs).
func (t *Tree) Clone() *Tree {
	cp := &Tree{Taxa: append([]string(nil), t.Taxa...)}
	cp.Nodes = make([]*Node, len(t.Nodes))
	for i, n := range t.Nodes {
		cp.Nodes[i] = &Node{ID: n.ID, Name: n.Name, Taxon: n.Taxon, Length: n.Length}
	}
	for i, n := range t.Nodes {
		c := cp.Nodes[i]
		if n.Parent != nil {
			c.Parent = cp.Nodes[n.Parent.ID]
		}
		for _, ch := range n.Children {
			c.Children = append(c.Children, cp.Nodes[ch.ID])
		}
	}
	cp.Root = cp.Nodes[t.Root.ID]
	return cp
}

// PostOrder invokes fn on every node below-and-including n in post-order
// (children before parents).
func PostOrder(n *Node, fn func(*Node)) {
	for _, c := range n.Children {
		PostOrder(c, fn)
	}
	fn(n)
}

// PreOrder invokes fn on every node below-and-including n in pre-order
// (parents before children).
func PreOrder(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		PreOrder(c, fn)
	}
}

// Newick renders the tree in Newick format with branch lengths.
func (t *Tree) Newick() string {
	var b []byte
	var write func(n *Node)
	write = func(n *Node) {
		if n.IsTip() {
			b = append(b, n.Name...)
		} else {
			b = append(b, '(')
			for i, c := range n.Children {
				if i > 0 {
					b = append(b, ',')
				}
				write(c)
			}
			b = append(b, ')')
		}
		if n.Parent != nil {
			b = strconv.AppendFloat(append(b, ':'), n.Length, 'f', 6, 64)
		}
	}
	write(t.Root)
	return string(append(b, ';')) // a copy of exact size, not the buffer's slack
}

// ParseNewick parses a Newick string with branch lengths into a Tree. Only
// binary trees (two children per internal node) are accepted, matching what
// the rest of the package produces.
func ParseNewick(s string) (*Tree, error) {
	s = strings.TrimSpace(s)
	if !strings.HasSuffix(s, ";") {
		return nil, fmt.Errorf("phylo: newick string must end with ';'")
	}
	s = strings.TrimSuffix(s, ";")
	t := &Tree{}
	pos := 0
	var nextInternalID int // assigned after parsing, tips get IDs first
	var parse func() (*Node, error)
	readLength := func(n *Node) error {
		if pos < len(s) && s[pos] == ':' {
			pos++
			start := pos
			for pos < len(s) && (s[pos] == '.' || s[pos] == '-' || s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+' || (s[pos] >= '0' && s[pos] <= '9')) {
				pos++
			}
			v, err := strconv.ParseFloat(s[start:pos], 64)
			if err != nil {
				return fmt.Errorf("phylo: bad branch length at %d: %v", start, err)
			}
			n.Length = v
		}
		return nil
	}
	parse = func() (*Node, error) {
		if pos >= len(s) {
			return nil, fmt.Errorf("phylo: unexpected end of newick string")
		}
		n := &Node{Taxon: -1, Length: DefaultBranchLength}
		if s[pos] == '(' {
			pos++
			for {
				child, err := parse()
				if err != nil {
					return nil, err
				}
				child.Parent = n
				n.Children = append(n.Children, child)
				if pos < len(s) && s[pos] == ',' {
					pos++
					continue
				}
				break
			}
			if pos >= len(s) || s[pos] != ')' {
				return nil, fmt.Errorf("phylo: expected ')' at position %d", pos)
			}
			pos++
		} else {
			start := pos
			for pos < len(s) && !strings.ContainsRune("(),:;", rune(s[pos])) {
				pos++
			}
			n.Name = strings.TrimSpace(s[start:pos])
			if n.Name == "" {
				return nil, fmt.Errorf("phylo: empty taxon name at position %d", start)
			}
		}
		if err := readLength(n); err != nil {
			return nil, err
		}
		return n, nil
	}
	root, err := parse()
	if err != nil {
		return nil, err
	}
	if pos != len(s) {
		return nil, fmt.Errorf("phylo: trailing characters after newick tree: %q", s[pos:])
	}
	// Assign IDs: tips first in order of appearance, then internal nodes.
	var tips, internal []*Node
	PostOrder(root, func(n *Node) {
		if n.IsTip() {
			tips = append(tips, n)
		} else {
			if len(n.Children) != 2 {
				err = fmt.Errorf("phylo: internal node with %d children; only binary trees are supported", len(n.Children))
			}
			internal = append(internal, n)
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(tips, func(i, j int) bool { return tips[i].Name < tips[j].Name })
	for i, tip := range tips {
		if i > 0 && tip.Name == tips[i-1].Name {
			return nil, fmt.Errorf("phylo: taxon %q appears twice", tip.Name)
		}
		tip.ID = i
		tip.Taxon = i
		t.Taxa = append(t.Taxa, tip.Name)
		t.Nodes = append(t.Nodes, tip)
	}
	nextInternalID = len(tips)
	for _, in := range internal {
		in.ID = nextInternalID
		nextInternalID++
		t.Nodes = append(t.Nodes, in)
	}
	t.Root = root
	return t, t.Validate()
}

// Bipartitions returns the set of non-trivial bipartitions (splits) induced
// by the tree's internal edges, each encoded as a sorted, comma-joined list
// of the taxon names on the child side (canonicalized to the smaller side
// containing the lexicographically smallest taxon).
func (t *Tree) Bipartitions() map[string]bool {
	all := map[string]bool{}
	for _, name := range t.Taxa {
		all[name] = true
	}
	out := map[string]bool{}
	for _, n := range t.Nodes {
		if n.Parent == nil || n.IsTip() {
			continue
		}
		var side []string
		PostOrder(n, func(m *Node) {
			if m.IsTip() {
				side = append(side, m.Name)
			}
		})
		if len(side) < 2 || len(side) > len(t.Taxa)-2 {
			continue // trivial split
		}
		sort.Strings(side)
		// Canonicalize: use the side that contains the overall smallest taxon.
		smallest := t.Taxa[0]
		for _, name := range t.Taxa {
			if name < smallest {
				smallest = name
			}
		}
		contains := false
		for _, name := range side {
			if name == smallest {
				contains = true
				break
			}
		}
		if !contains {
			var other []string
			inSide := map[string]bool{}
			for _, name := range side {
				inSide[name] = true
			}
			// Map order: the collected keys are sorted immediately below.
			for name := range all {
				if !inSide[name] {
					other = append(other, name)
				}
			}
			sort.Strings(other)
			side = other
		}
		out[strings.Join(side, ",")] = true
	}
	return out
}

// RobinsonFoulds returns the Robinson-Foulds distance between two trees over
// the same taxa: the number of bipartitions present in exactly one of them.
func RobinsonFoulds(a, b *Tree) int {
	ba := a.Bipartitions()
	bb := b.Bipartitions()
	d := 0
	for s := range ba {
		if !bb[s] {
			d++
		}
	}
	for s := range bb {
		if !ba[s] {
			d++
		}
	}
	return d
}

// NNIMove describes one nearest-neighbour-interchange rearrangement around
// the internal edge (Edge.Parent, Edge): the Edge's child with index
// ChildIndex is swapped with Edge's sibling.
type NNIMove struct {
	Edge       *Node
	ChildIndex int
}

// AppendNNIMoves appends both NNI rearrangements around every internal edge
// (both endpoints internal; edges at the root excluded, the root being a
// placement artifact) to buf and returns it, in Tree.Nodes order. The search
// reuses one buffer across sweeps, so enumerating allocates nothing.
func (t *Tree) AppendNNIMoves(buf []NNIMove) []NNIMove {
	for _, n := range t.Nodes {
		if n.Parent != nil && !n.IsTip() && n.Parent != t.Root {
			buf = append(buf, NNIMove{Edge: n, ChildIndex: 0}, NNIMove{Edge: n, ChildIndex: 1})
		}
	}
	return buf
}

// TreeSnapshot is a compact, ID-indexed record of a tree's topology and
// branch lengths, restorable in place. Because every topology operation in
// this package (NNI rearrangement, branch optimization) preserves each node's
// arity, Restore only reassigns parent pointers, child slots and lengths — it
// allocates nothing and reuses the tree's existing Node objects. Benchmarks
// use it to reset a tree between search iterations without rebuilding it.
type TreeSnapshot struct {
	parent []int32 // per node ID; -1 for the root
	child  []int32 // two entries per node ID; -1 for tips
	length []float64
	root   int32
}

// CaptureTopologyInto records the tree's current topology and branch lengths
// in s, reusing its slices when they are large enough (the per-sweep
// checkpoint emission re-captures into the same snapshot every sweep). The
// snapshot stays valid as long as the tree keeps the same node set (IDs are
// stable across rearrangements).
func (t *Tree) CaptureTopologyInto(s *TreeSnapshot) {
	n := len(t.Nodes)
	if cap(s.parent) < n {
		s.parent = make([]int32, n)
		s.child = make([]int32, 2*n)
		s.length = make([]float64, n)
	}
	s.parent = s.parent[:n]
	s.child = s.child[:2*n]
	s.length = s.length[:n]
	s.root = int32(t.Root.ID)
	for i, v := range t.Nodes {
		if v.Parent != nil {
			s.parent[i] = int32(v.Parent.ID)
		} else {
			s.parent[i] = -1
		}
		s.child[2*i] = -1
		s.child[2*i+1] = -1
		for j, c := range v.Children {
			s.child[2*i+j] = int32(c.ID)
		}
		s.length[i] = v.Length
	}
}

// Restore rewrites the tree's parent/child pointers and branch lengths to the
// snapshotted state. The tree must have the node set the snapshot was taken
// from (same count, same IDs, same arities).
func (s *TreeSnapshot) Restore(t *Tree) error {
	if len(t.Nodes) != len(s.parent) {
		return fmt.Errorf("phylo: snapshot covers %d nodes, tree has %d", len(s.parent), len(t.Nodes))
	}
	for i, v := range t.Nodes {
		if p := s.parent[i]; p >= 0 {
			v.Parent = t.Nodes[p]
		} else {
			v.Parent = nil
		}
		for j := range v.Children {
			c := s.child[2*i+j]
			if c < 0 {
				return fmt.Errorf("phylo: snapshot arity mismatch at node %d", i)
			}
			v.Children[j] = t.Nodes[c]
		}
		v.Length = s.length[i]
	}
	t.Root = t.Nodes[s.root]
	return nil
}

// Apply performs the rearrangement. Applying the same move again undoes it.
func (m NNIMove) Apply() {
	edge := m.Edge
	parent := edge.Parent
	sibling := edge.Sibling()
	child := edge.Children[m.ChildIndex]
	// Swap child <-> sibling.
	parent.replaceChild(sibling, child)
	edge.replaceChild(child, sibling)
	child.Parent = parent
	sibling.Parent = edge
}
