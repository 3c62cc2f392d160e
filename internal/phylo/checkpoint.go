package phylo

// Search checkpointing: a versioned, deterministic binary record of a tree
// search at a sweep boundary, small enough to write on every sweep (O(taxa):
// topology, branch lengths, model parameters and counters — never the O(taxa ×
// sites) conditional-likelihood vectors, which Refresh recomputes on load).
//
// The contract that makes exact resume possible is the one the property tests
// of incremental_test.go assert: conditional likelihoods recomputed from
// scratch off a tree are byte-identical to the ones maintained incrementally,
// and every piece of search state that influences the remaining computation
// is either in the checkpoint or a pure function of it. A search resumed from
// a checkpoint therefore produces bit-identical results — tree topology,
// branch-length bits, log-likelihood bits, move counters — to the
// uninterrupted run.
//
// Versioning rule: CheckpointVersion is bumped on ANY change to the encoded
// layout or to the search semantics the counters describe. Decoding rejects
// unknown versions outright (no cross-version migration): a checkpoint is a
// crash-recovery artifact of one binary, not an archival format, and a failed
// decode merely restarts the search from scratch — correct, just slower.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// CheckpointVersion identifies the encoded layout; see the versioning rule in
// the package comment above.
const CheckpointVersion = 1

// checkpointMagic frames every encoded checkpoint ("CMGCKPT").
var checkpointMagic = [8]byte{'C', 'M', 'G', 'C', 'K', 'P', 'T', 0}

// treeMagic frames an encoded standalone tree ("CMGTREE").
var treeMagic = [8]byte{'C', 'M', 'G', 'T', 'R', 'E', 'E', 0}

// crcTable is the Castagnoli polynomial both codecs use for their trailing
// integrity check (the WAL frames records with the same polynomial).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is the restartable state of a tree search at a sweep boundary.
// The engine owns one and reuses it across emissions (fillCheckpoint), so the
// Checkpoint handed to SearchOptions.Checkpoint must not be retained past the
// callback; encode it (AppendBinary) if it needs to outlive the call. Taxa
// aliases the engine's alignment names — read-only.
type Checkpoint struct {
	// Round counts completed NNI sweeps; the resumed search continues at
	// round Round. NNIEvaluated/NNIAccepted are the SearchResult counters at
	// the boundary.
	Round        int
	NNIEvaluated int
	NNIAccepted  int
	// StartLogLik and Best are the log-likelihood after the initial
	// branch-length optimization and at this boundary, bit-exact.
	StartLogLik float64
	Best        float64
	// SmoothConverged and LastSweepImproved reproduce the control flow that
	// decides whether the final thorough smoothing pass runs.
	SmoothConverged   bool
	LastSweepImproved bool
	// Seed is the search seed. The search's RNG stream is fully consumed
	// building the randomized starting tree, before the first sweep boundary,
	// so the seed plus the captured topology IS the stream position: nothing
	// after the checkpoint draws from the generator.
	Seed int64

	// Model self-description: JC69, or a GTR-family model given by its six
	// exchange rates and base frequencies (the eigendecomposition is
	// recomputed deterministically from them on load).
	ModelGTR  bool
	ModelName string
	GTRRates  [6]float64
	GTRFreqs  Frequencies
	// Rates are the per-category rates (SingleRate or DiscreteGamma output),
	// stored bit-exact rather than as the Gamma shape so discretization
	// changes cannot silently shift a resumed search.
	Rates []float64

	// Taxa and Topo carry the tree: taxon names in tip-ID order plus the
	// ID-indexed topology/branch-length snapshot.
	Taxa []string
	Topo TreeSnapshot
}

// fillCheckpoint writes the engine's current search state into c, reusing
// c's slices — no allocation in steady state (AllocsPerRun-guarded by
// TestCheckpointEmissionAllocationFree).
func (e *Engine) fillCheckpoint(c *Checkpoint, tree *Tree, opts *SearchOptions, res *SearchResult,
	best float64, smoothConverged, lastImproved bool) {
	c.Round = res.Rounds
	c.NNIEvaluated = res.NNIEvaluated
	c.NNIAccepted = res.NNIAccepted
	c.StartLogLik = res.StartLogLik
	c.Best = best
	c.SmoothConverged = smoothConverged
	c.LastSweepImproved = lastImproved
	c.Seed = opts.Seed
	switch m := e.Model.(type) {
	case JC69:
		c.ModelGTR = false
		c.ModelName = m.Name()
		c.GTRRates = [6]float64{}
		c.GTRFreqs = Frequencies{}
	case *GTR:
		c.ModelGTR = true
		c.ModelName = m.Name()
		c.GTRRates = m.ExchangeRates()
		c.GTRFreqs = m.Frequencies()
	default:
		// Unknown model implementations cannot be round-tripped; mark the
		// checkpoint so Matches rejects it instead of resuming a search under
		// the wrong model.
		c.ModelGTR = false
		c.ModelName = ""
	}
	c.Rates = append(c.Rates[:0], e.Rates.Rates...)
	c.Taxa = e.Data.Names
	tree.CaptureTopologyInto(&c.Topo)
}

// emitCheckpoint invokes the Checkpoint hook, if any, with the engine-owned
// checkpoint refreshed to the current sweep boundary.
func (e *Engine) emitCheckpoint(opts *SearchOptions, res *SearchResult, tree *Tree,
	best float64, smoothConverged, lastImproved bool) {
	if opts.Checkpoint == nil {
		return
	}
	e.fillCheckpoint(&e.ckpt, tree, opts, res, best, smoothConverged, lastImproved)
	opts.Checkpoint(&e.ckpt)
}

// Matches reports whether the checkpoint was taken under the engine's
// alignment, model and rate configuration — the compatibility gate of resume.
func (c *Checkpoint) Matches(e *Engine) error {
	if len(c.Taxa) != len(e.Data.Names) {
		return fmt.Errorf("phylo: checkpoint covers %d taxa, engine has %d", len(c.Taxa), len(e.Data.Names))
	}
	for i, name := range c.Taxa {
		if e.Data.Names[i] != name {
			return fmt.Errorf("phylo: checkpoint taxon %d is %q, engine has %q", i, name, e.Data.Names[i])
		}
	}
	switch m := e.Model.(type) {
	case JC69:
		if c.ModelGTR || c.ModelName != m.Name() {
			return fmt.Errorf("phylo: checkpoint model %q does not match engine model %q", c.ModelName, m.Name())
		}
	case *GTR:
		if !c.ModelGTR || c.GTRRates != m.ExchangeRates() || c.GTRFreqs != m.Frequencies() {
			return fmt.Errorf("phylo: checkpoint model %q does not match engine GTR parameters", c.ModelName)
		}
	default:
		return fmt.Errorf("phylo: engine model %T cannot be checkpoint-resumed", e.Model)
	}
	if len(c.Rates) != len(e.Rates.Rates) {
		return fmt.Errorf("phylo: checkpoint has %d rate categories, engine has %d", len(c.Rates), len(e.Rates.Rates))
	}
	for i, r := range c.Rates {
		if math.Float64bits(e.Rates.Rates[i]) != math.Float64bits(r) {
			return fmt.Errorf("phylo: checkpoint rate category %d differs from engine", i)
		}
	}
	return nil
}

// BuildTree materializes the checkpointed topology as a fresh Tree.
func (c *Checkpoint) BuildTree() (*Tree, error) {
	return buildTreeFrom(c.Taxa, &c.Topo)
}

// buildTreeFrom grows a node skeleton matching the snapshot's ID layout (tips
// first, then binary internal nodes) and restores the snapshot into it.
func buildTreeFrom(taxa []string, topo *TreeSnapshot) (*Tree, error) {
	n := len(taxa)
	total := len(topo.parent)
	if n < 3 || total != 2*n-1 {
		return nil, fmt.Errorf("phylo: snapshot has %d nodes for %d taxa, want %d", total, n, 2*n-1)
	}
	t := &Tree{Taxa: append([]string(nil), taxa...)}
	t.Nodes = make([]*Node, 0, total)
	for i, name := range taxa {
		t.Nodes = append(t.Nodes, &Node{ID: i, Name: name, Taxon: i})
	}
	for i := n; i < total; i++ {
		t.Nodes = append(t.Nodes, &Node{ID: i, Taxon: -1, Children: make([]*Node, 2)})
	}
	if topo.root < 0 || int(topo.root) >= total {
		return nil, fmt.Errorf("phylo: snapshot root %d out of range", topo.root)
	}
	if err := topo.Restore(t); err != nil {
		return nil, err
	}
	return t, t.Validate()
}

// --- binary codec ---------------------------------------------------------

// appendUvarint appends v in unsigned LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendF64 appends the raw IEEE-754 bits little-endian — the codec never
// formats floats, so every value round-trips bit-exactly.
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendSnapshot encodes a TreeSnapshot: node count, parents and child slots
// biased by +1 so -1 ("none") encodes as 0, then branch-length bits and root.
func appendSnapshot(dst []byte, s *TreeSnapshot) []byte {
	dst = appendUvarint(dst, uint64(len(s.parent)))
	for _, p := range s.parent {
		dst = appendUvarint(dst, uint64(p+1))
	}
	for _, ch := range s.child {
		dst = appendUvarint(dst, uint64(ch+1))
	}
	for _, l := range s.length {
		dst = appendF64(dst, l)
	}
	return appendUvarint(dst, uint64(s.root))
}

// AppendBinary appends the checkpoint's encoded form to dst and returns the
// extended slice. The layout is magic, version, body, crc32c(version+body).
// Encoding allocates nothing beyond growing dst, so a caller that reuses its
// buffer emits checkpoints allocation-free.
func (c *Checkpoint) AppendBinary(dst []byte) []byte {
	dst = append(dst, checkpointMagic[:]...)
	body := len(dst)
	dst = appendUvarint(dst, CheckpointVersion)
	dst = appendUvarint(dst, uint64(c.Round))
	dst = appendUvarint(dst, uint64(c.NNIEvaluated))
	dst = appendUvarint(dst, uint64(c.NNIAccepted))
	// Two reserved slots (layout v1 stored speculation counters here).
	dst = appendUvarint(dst, 0)
	dst = appendUvarint(dst, 0)
	dst = appendF64(dst, c.StartLogLik)
	dst = appendF64(dst, c.Best)
	dst = appendBool(dst, c.SmoothConverged)
	dst = appendBool(dst, c.LastSweepImproved)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Seed))
	dst = appendBool(dst, true) // reserved: layout v1's site-repeat flag, which changed no result bit
	dst = appendBool(dst, c.ModelGTR)
	dst = appendString(dst, c.ModelName)
	for _, r := range c.GTRRates {
		dst = appendF64(dst, r)
	}
	for _, f := range c.GTRFreqs {
		dst = appendF64(dst, f)
	}
	dst = appendUvarint(dst, uint64(len(c.Rates)))
	for _, r := range c.Rates {
		dst = appendF64(dst, r)
	}
	dst = appendUvarint(dst, uint64(len(c.Taxa)))
	for _, name := range c.Taxa {
		dst = appendString(dst, name)
	}
	dst = appendSnapshot(dst, &c.Topo)
	sum := crc32.Checksum(dst[body:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// Decoder is a bounds-checked little-endian cursor over one encoded record
// with a sticky error: after the first failure every read returns zero, so a
// record is decoded straight through and Err checked once. It reads the
// checkpoint and tree records here and the job server's WAL payloads, which
// are built from the same primitives (uvarint, fixed u64, bool byte,
// length-prefixed bytes).
type Decoder struct {
	data []byte
	pos  int
	err  error
}

// NewDecoder returns a decoder positioned at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// U64 reads one fixed-width little-endian 64-bit value.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.fail("truncated u64 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

func (d *Decoder) f64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte as a flag.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.data) {
		d.fail("truncated bool at offset %d", d.pos)
		return false
	}
	v := d.data[d.pos]
	d.pos++
	return v != 0
}

// Bytes reads a uvarint length and that many bytes, returned as a view of the
// record. The length is compared in unsigned space, so no length a writer can
// put in a varint reaches a slice expression unless the record holds it.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.pos) {
		d.fail("%d bytes at offset %d exceed the record", n, d.pos)
		return nil
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *Decoder) string(maxLen int) string {
	b := d.Bytes()
	if len(b) > maxLen {
		d.fail("string of %d bytes before offset %d, limit %d", len(b), d.pos, maxLen)
		return ""
	}
	return string(b)
}

// count reads a uvarint count of items encoded in at least per bytes each
// and refuses one that the rest of the record cannot hold. The CRC guards
// against corruption, not against a writer, who can compute it: what bounds
// the arrays a count sizes is the record's own length.
func (d *Decoder) count(per int, what string) uint64 {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.data)-d.pos)/uint64(per) {
		d.fail("%s count %d at offset %d exceeds the record", what, n, d.pos)
		return 0
	}
	return n
}

// maxCheckpointNodes bounds decoded snapshot and taxon counts, well inside
// the int32 node indices a snapshot holds.
const maxCheckpointNodes = 1 << 22

// snapshotNodeBytes is the least a snapshot node is encoded in: parent and
// two children as uvarints of one byte or more, and its length's 8 bytes.
const snapshotNodeBytes = 3 + 8

func (d *Decoder) snapshot(s *TreeSnapshot) {
	n := d.count(snapshotNodeBytes, "snapshot node")
	if d.err != nil {
		return
	}
	if n < 3 || n > maxCheckpointNodes {
		d.fail("snapshot node count %d out of range", n)
		return
	}
	s.parent = make([]int32, n)
	s.child = make([]int32, 2*n)
	s.length = make([]float64, n)
	for i := range s.parent {
		v := d.Uvarint()
		if v > n {
			d.fail("snapshot parent %d out of range", v)
			return
		}
		s.parent[i] = int32(v) - 1
	}
	for i := range s.child {
		v := d.Uvarint()
		if v > n {
			d.fail("snapshot child %d out of range", v)
			return
		}
		s.child[i] = int32(v) - 1
	}
	for i := range s.length {
		s.length[i] = d.f64()
	}
	root := d.Uvarint()
	if d.err == nil && root >= n {
		d.fail("snapshot root %d out of range", root)
		return
	}
	s.root = int32(root)
}

// checkFrame validates magic and the trailing CRC, returning the body (after
// the magic, before the CRC).
func checkFrame(data, magic []byte, what string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("phylo: %s record of %d bytes is too short", what, len(data))
	}
	if string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("phylo: bad %s magic", what)
	}
	body := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("phylo: %s checksum mismatch (corrupt record)", what)
	}
	return body, nil
}

// DecodeCheckpoint parses an encoded checkpoint, validating magic, version
// and CRC. Unknown versions are rejected (see the versioning rule above).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	body, err := checkFrame(data, checkpointMagic[:], "checkpoint")
	if err != nil {
		return nil, err
	}
	d := NewDecoder(body)
	if v := d.Uvarint(); d.err == nil && v != CheckpointVersion {
		return nil, fmt.Errorf("phylo: checkpoint version %d, this binary reads only %d", v, CheckpointVersion)
	}
	c := &Checkpoint{}
	c.Round = int(d.Uvarint())
	c.NNIEvaluated = int(d.Uvarint())
	c.NNIAccepted = int(d.Uvarint())
	// Reserved: a checkpoint written by a speculative search of an earlier
	// binary carries its counters here; they never influenced the search.
	d.Uvarint()
	d.Uvarint()
	c.StartLogLik = d.f64()
	c.Best = d.f64()
	c.SmoothConverged = d.Bool()
	c.LastSweepImproved = d.Bool()
	c.Seed = int64(d.U64())
	d.Bool() // reserved: the site-repeat setting of an engine that had one
	c.ModelGTR = d.Bool()
	c.ModelName = d.string(1 << 10)
	for i := range c.GTRRates {
		c.GTRRates[i] = d.f64()
	}
	for i := range c.GTRFreqs {
		c.GTRFreqs[i] = d.f64()
	}
	nRates := d.count(8, "rate")
	if d.err == nil && nRates > 1<<10 {
		return nil, fmt.Errorf("phylo: checkpoint rate count %d out of range", nRates)
	}
	if d.err == nil {
		c.Rates = make([]float64, nRates)
		for i := range c.Rates {
			c.Rates[i] = d.f64()
		}
	}
	nTaxa := d.count(1, "taxon") // a name is a uvarint length, then its bytes
	if d.err == nil && nTaxa > maxCheckpointNodes {
		return nil, fmt.Errorf("phylo: checkpoint taxon count %d out of range", nTaxa)
	}
	if d.err == nil {
		c.Taxa = make([]string, nTaxa)
		for i := range c.Taxa {
			c.Taxa[i] = d.string(1 << 16)
		}
	}
	d.snapshot(&c.Topo)
	if d.err != nil {
		return nil, fmt.Errorf("phylo: checkpoint: %w", d.err)
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("phylo: %d trailing bytes after checkpoint", len(body)-d.pos)
	}
	return c, nil
}

// --- standalone tree codec ------------------------------------------------

// AppendTreeBinary appends a bit-exact encoding of the tree (taxa, topology,
// branch-length bits) to dst — the representation the job store uses for
// completed-task results, where Newick's fixed-precision formatting would
// break byte-identical recovery.
func AppendTreeBinary(dst []byte, t *Tree) []byte {
	var snap TreeSnapshot
	t.CaptureTopologyInto(&snap)
	dst = append(dst, treeMagic[:]...)
	body := len(dst)
	dst = appendUvarint(dst, CheckpointVersion)
	dst = appendUvarint(dst, uint64(len(t.Taxa)))
	for _, name := range t.Taxa {
		dst = appendString(dst, name)
	}
	dst = appendSnapshot(dst, &snap)
	sum := crc32.Checksum(dst[body:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// DecodeTreeBinary parses an AppendTreeBinary record back into a Tree with
// the exact branch-length bits it was encoded from.
func DecodeTreeBinary(data []byte) (*Tree, error) {
	body, err := checkFrame(data, treeMagic[:], "tree")
	if err != nil {
		return nil, err
	}
	d := NewDecoder(body)
	if v := d.Uvarint(); d.err == nil && v != CheckpointVersion {
		return nil, fmt.Errorf("phylo: tree record version %d, this binary reads only %d", v, CheckpointVersion)
	}
	nTaxa := d.count(1, "taxon")
	if d.err == nil && nTaxa > maxCheckpointNodes {
		return nil, fmt.Errorf("phylo: tree record taxon count %d out of range", nTaxa)
	}
	var taxa []string
	if d.err == nil {
		taxa = make([]string, nTaxa)
		for i := range taxa {
			taxa[i] = d.string(1 << 16)
		}
	}
	var snap TreeSnapshot
	d.snapshot(&snap)
	if d.err != nil {
		return nil, fmt.Errorf("phylo: tree record: %w", d.err)
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("phylo: %d trailing bytes after tree record", len(body)-d.pos)
	}
	return buildTreeFrom(taxa, &snap)
}
