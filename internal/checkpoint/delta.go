package checkpoint

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Delta checkpoints exploit the one structural invariant of the replay
// state: it is append-only. A later day never removes a node, never
// removes an edge, and never rewrites a neighbor list — it only appends
// to adjacency lists and extends the per-node columns. A delta against a
// parent checkpoint therefore needs just three things: the suffixes
// appended to old nodes' neighbor lists, the new nodes' full rows, and
// whichever stage blobs actually changed. At a weekly full cadence the
// in-between days shrink to a few percent of a full snapshot.
//
// Delta file layout (same primitive codec as the full container):
//
//	magic "RRD1"
//	uvarint format version (FormatVersion)
//	uvarint config hash
//	varint  day (snapshot day, like the full container)
//	varint  parent day (the full-or-delta checkpoint this extends)
//	uvarint parent sum — FNV-64a over the parent file's exact bytes, so
//	        resume can prove the parent on disk is the parent this delta
//	        was diffed against, not a same-named rewrite
//	uvarint stage count, then per stage a length-prefixed name
//	state patch (encodeStatePatch)
//	per stage, in header order: one flag byte — 0 the blob is unchanged
//	        (byte-identical to the parent's), 1 a length-prefixed
//	        replacement blob follows
//	end magic "RRDE"
var (
	deltaMagic    = [4]byte{'R', 'R', 'D', '1'}
	deltaEndMagic = [4]byte{'R', 'R', 'D', 'E'}
)

// DeltaHeader identifies a delta checkpoint and the parent it extends.
type DeltaHeader struct {
	Day        int32
	ParentDay  int32
	ParentSum  uint64
	ConfigHash uint64
	Stages     []string
}

// GrownNode is one pre-existing node whose neighbor list gained a
// suffix since the parent checkpoint.
type GrownNode struct {
	Node  int32
	Added []graph.NodeID
}

// StatePatch is the shared-state delta: what replaying the days between
// parent and child appended.
type StatePatch struct {
	// ParentNodes is the parent state's node count — the split point
	// between "grown" and "new".
	ParentNodes int
	// Grown lists old nodes with appended neighbors, in ascending node
	// order.
	Grown []GrownNode
	// NewAdj holds the full neighbor lists of nodes ParentNodes.. in
	// insertion order (order is semantic, as in the full container).
	NewAdj [][]graph.NodeID
	// JoinDay and Origin are the column suffixes for the new nodes.
	JoinDay []int32
	Origin  []trace.Origin
	// Day is the patched state's day watermark.
	Day int32
}

// DeltaBlob is one stage's entry in a delta: either "unchanged since
// parent" or a full replacement blob. Stage states are opaque to the
// container, so changed blobs are carried whole; for the heavy stages
// the state is itself day-incremental and small next to the graph.
type DeltaBlob struct {
	Name    string
	Changed bool
	Data    []byte // nil when !Changed
}

// DeltaFile is a fully decoded delta checkpoint.
type DeltaFile struct {
	Header DeltaHeader
	Patch  *StatePatch
	Blobs  []DeltaBlob
}

// DiffState computes the patch from a parent state summary to cur. The
// parent is summarized by its node count and per-node degrees (what the
// writer retains between checkpoints — holding the whole parent state
// would defeat the point). An error means cur is not an append-extension
// of the parent, which indicates the caller paired the wrong states.
func DiffState(parentNodes int, parentDeg []int32, cur *trace.State) (*StatePatch, error) {
	n := cur.Graph.NumNodes()
	if len(parentDeg) != parentNodes {
		return nil, fmt.Errorf("checkpoint: %d parent degrees for %d parent nodes", len(parentDeg), parentNodes)
	}
	if n < parentNodes {
		return nil, fmt.Errorf("checkpoint: state has %d nodes, parent had %d — not an extension", n, parentNodes)
	}
	if len(cur.JoinDay) != n || len(cur.Origin) != n {
		return nil, fmt.Errorf("checkpoint: column lengths %d/%d for %d nodes", len(cur.JoinDay), len(cur.Origin), n)
	}
	p := &StatePatch{ParentNodes: parentNodes, Day: cur.Day}
	var ns []graph.NodeID
	for u := 0; u < parentNodes; u++ {
		deg := cur.Graph.Degree(graph.NodeID(u))
		old := int(parentDeg[u])
		if deg < old {
			return nil, fmt.Errorf("checkpoint: node %d degree shrank %d -> %d — not an extension", u, old, deg)
		}
		if deg > old {
			ns = cur.Graph.AppendNeighbors(ns[:0], graph.NodeID(u))
			added := make([]graph.NodeID, deg-old)
			copy(added, ns[old:])
			p.Grown = append(p.Grown, GrownNode{Node: int32(u), Added: added})
		}
	}
	for u := parentNodes; u < n; u++ {
		deg := cur.Graph.Degree(graph.NodeID(u))
		row := cur.Graph.AppendNeighbors(make([]graph.NodeID, 0, deg), graph.NodeID(u))
		p.NewAdj = append(p.NewAdj, row)
	}
	p.JoinDay = append([]int32(nil), cur.JoinDay[parentNodes:]...)
	p.Origin = append([]trace.Origin(nil), cur.Origin[parentNodes:]...)
	return p, nil
}

// StateBuilder accumulates a base state plus a chain of patches directly
// in a mutable arena graph — the replay state is append-only, so a patch
// is exactly a sequence of arena appends. Resolving a k-deep delta chain
// never materializes an intermediate per-node adjacency structure.
type StateBuilder struct {
	g      *graph.Graph
	join   []int32
	origin []trace.Origin
	day    int32
}

// NewStateBuilder seeds a builder from a decoded full-checkpoint state.
func NewStateBuilder(st *trace.State) *StateBuilder {
	return &StateBuilder{
		g:      st.Graph.Clone(),
		join:   append([]int32(nil), st.JoinDay...),
		origin: append([]trace.Origin(nil), st.Origin...),
		day:    st.Day,
	}
}

// Apply extends the builder with one patch. The patch's ParentNodes must
// match the builder's current node count — patches apply in chain order.
func (b *StateBuilder) Apply(p *StatePatch) error {
	if p.ParentNodes != b.g.NumNodes() {
		return fmt.Errorf("checkpoint: patch expects %d parent nodes, state has %d", p.ParentNodes, b.g.NumNodes())
	}
	if len(p.JoinDay) != len(p.NewAdj) || len(p.Origin) != len(p.NewAdj) {
		return fmt.Errorf("%w: patch column lengths %d/%d for %d new nodes", ErrCorrupt, len(p.JoinDay), len(p.Origin), len(p.NewAdj))
	}
	if p.Day < b.day {
		return fmt.Errorf("%w: patch day %d before state day %d", ErrCorrupt, p.Day, b.day)
	}
	total := b.g.NumNodes() + len(p.NewAdj)
	prev := int32(-1)
	for _, gn := range p.Grown {
		if gn.Node <= prev || int(gn.Node) >= p.ParentNodes {
			return fmt.Errorf("%w: grown node %d out of order or range", ErrCorrupt, gn.Node)
		}
		prev = gn.Node
		for _, v := range gn.Added {
			if int(v) >= total || v < 0 {
				return fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, total)
			}
		}
		for _, v := range gn.Added {
			b.g.AppendArc(gn.Node, v)
		}
	}
	for i, ns := range p.NewAdj {
		u := graph.NodeID(p.ParentNodes + i)
		for _, v := range ns {
			if int(v) >= total || v < 0 {
				return fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, total)
			}
		}
		for _, v := range ns {
			b.g.AppendArc(u, v)
		}
	}
	if total > 0 {
		b.g.EnsureNode(graph.NodeID(total - 1))
	}
	b.join = append(b.join, p.JoinDay...)
	b.origin = append(b.origin, p.Origin...)
	b.day = p.Day
	return nil
}

// State materializes the accumulated state. The builder must not be used
// afterwards (the graph and columns are handed over, and ends-parity is
// validated here like DecodeState does).
func (b *StateBuilder) State() (*trace.State, error) {
	if b.g.Arcs()%2 != 0 {
		return nil, fmt.Errorf("%w: odd adjacency ends", ErrCorrupt)
	}
	if len(b.join) != b.g.NumNodes() || len(b.origin) != b.g.NumNodes() {
		return nil, fmt.Errorf("%w: column lengths %d/%d for %d nodes", ErrCorrupt, len(b.join), len(b.origin), b.g.NumNodes())
	}
	return &trace.State{
		Graph:   b.g,
		JoinDay: b.join,
		Origin:  b.origin,
		Day:     b.day,
	}, nil
}

// Degrees summarizes a state for future diffing: the per-node degree
// vector a writer keeps so the next delta can be computed without
// retaining the whole parent state.
func Degrees(st *trace.State) []int32 {
	n := st.Graph.NumNodes()
	deg := make([]int32, n)
	for u := 0; u < n; u++ {
		deg[u] = int32(st.Graph.Degree(graph.NodeID(u)))
	}
	return deg
}

// WriteDelta renders a delta checkpoint (blobs in h.Stages order).
func WriteDelta(w io.Writer, h DeltaHeader, p *StatePatch, blobs []DeltaBlob) error {
	if len(blobs) != len(h.Stages) {
		return fmt.Errorf("checkpoint: %d blobs for %d stages", len(blobs), len(h.Stages))
	}
	e := NewEncoder(w)
	e.write(deltaMagic[:])
	e.U64(FormatVersion)
	e.U64(h.ConfigHash)
	e.I32(h.Day)
	e.I32(h.ParentDay)
	e.U64(h.ParentSum)
	e.U64(uint64(len(h.Stages)))
	for _, s := range h.Stages {
		e.String(s)
	}
	encodeStatePatch(e, p)
	for _, b := range blobs {
		e.Bool(b.Changed)
		if b.Changed {
			e.Bytes(b.Data)
		}
	}
	e.write(deltaEndMagic[:])
	return e.Flush()
}

func encodeStatePatch(e *Encoder, p *StatePatch) {
	e.U64(uint64(p.ParentNodes))
	e.U64(uint64(len(p.Grown)))
	for _, g := range p.Grown {
		e.I32(g.Node)
		e.U64(uint64(len(g.Added)))
		for _, v := range g.Added {
			e.U64(uint64(v))
		}
	}
	e.U64(uint64(len(p.NewAdj)))
	for _, ns := range p.NewAdj {
		e.U64(uint64(len(ns)))
		for _, v := range ns {
			e.U64(uint64(v))
		}
	}
	e.I32s(p.JoinDay)
	origins := make([]byte, len(p.Origin))
	for i, o := range p.Origin {
		origins[i] = byte(o)
	}
	e.Bytes(origins)
	e.I32(p.Day)
}

func decodeStatePatch(d *Decoder) (*StatePatch, error) {
	p := &StatePatch{ParentNodes: d.Len()}
	grown := d.Len()
	if d.err != nil {
		return nil, d.err
	}
	total := p.ParentNodes // refined after new-node count is known
	p.Grown = make([]GrownNode, 0, capLen(grown))
	for i := 0; i < grown; i++ {
		g := GrownNode{Node: d.I32()}
		deg := d.Len()
		if d.err != nil {
			return nil, d.err
		}
		g.Added = make([]graph.NodeID, 0, capLen(deg))
		for j := 0; j < deg; j++ {
			g.Added = append(g.Added, graph.NodeID(d.U64()))
			if d.err != nil {
				return nil, d.err
			}
		}
		p.Grown = append(p.Grown, g)
	}
	newNodes := d.Len()
	if d.err != nil {
		return nil, d.err
	}
	total += newNodes
	p.NewAdj = make([][]graph.NodeID, 0, capLen(newNodes))
	for i := 0; i < newNodes; i++ {
		deg := d.Len()
		if d.err != nil {
			return nil, d.err
		}
		ns := make([]graph.NodeID, 0, capLen(deg))
		for j := 0; j < deg; j++ {
			v := d.U64()
			if d.err != nil {
				return nil, d.err
			}
			if v >= uint64(total) {
				return nil, d.fail(fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, total))
			}
			ns = append(ns, graph.NodeID(v))
		}
		p.NewAdj = append(p.NewAdj, ns)
	}
	// Grown rows are validated here too, now that the total is known
	// (Apply re-checks against the builder's actual size).
	prev := int32(-1)
	for _, g := range p.Grown {
		if g.Node <= prev || int(g.Node) >= p.ParentNodes {
			return nil, d.fail(fmt.Errorf("%w: grown node %d out of order or range", ErrCorrupt, g.Node))
		}
		prev = g.Node
		for _, v := range g.Added {
			if int(v) >= total {
				return nil, d.fail(fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, total))
			}
		}
	}
	p.JoinDay = d.I32s()
	origins := d.Bytes()
	p.Origin = make([]trace.Origin, len(origins))
	for i, b := range origins {
		p.Origin[i] = trace.Origin(b)
	}
	p.Day = d.I32()
	if d.err != nil {
		return nil, d.err
	}
	if len(p.JoinDay) != newNodes || len(p.Origin) != newNodes {
		return nil, d.fail(fmt.Errorf("%w: patch column lengths %d/%d for %d new nodes", ErrCorrupt, len(p.JoinDay), len(p.Origin), newNodes))
	}
	return p, nil
}

// readDeltaHeader decodes the delta header with d at the magic.
func readDeltaHeader(d *Decoder) (DeltaHeader, error) {
	if err := d.expect(deltaMagic, ErrBadMagic); err != nil {
		return DeltaHeader{}, err
	}
	if v := d.U64(); d.err == nil && v != FormatVersion {
		return DeltaHeader{}, d.fail(fmt.Errorf("%w: %d", ErrVersion, v))
	}
	var h DeltaHeader
	h.ConfigHash = d.U64()
	h.Day = d.I32()
	h.ParentDay = d.I32()
	h.ParentSum = d.U64()
	n := d.Len()
	if d.err == nil && n > maxSections {
		return DeltaHeader{}, d.fail(fmt.Errorf("%w: %d stages", ErrTooLarge, n))
	}
	for i := 0; i < n && d.err == nil; i++ {
		h.Stages = append(h.Stages, d.String())
	}
	return h, d.err
}

// ReadDeltaHeader decodes just a delta's header — the cheap probe resume
// resolution scans candidates with. Like ReadHeader, it reads r to its
// end.
func ReadDeltaHeader(r io.Reader) (DeltaHeader, error) {
	b, err := readAll(r)
	if err != nil {
		return DeltaHeader{}, err
	}
	return readDeltaHeader(NewDecoder(b))
}

// ReadDelta decodes a whole delta checkpoint file.
func ReadDelta(r io.Reader) (*DeltaFile, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	d := NewDecoder(b)
	h, err := readDeltaHeader(d)
	if err != nil {
		return nil, err
	}
	p, err := decodeStatePatch(d)
	if err != nil {
		return nil, err
	}
	f := &DeltaFile{Header: h, Patch: p}
	for _, name := range h.Stages {
		b := DeltaBlob{Name: name, Changed: d.Bool()}
		if b.Changed {
			b.Data = d.Bytes()
		}
		if d.err != nil {
			return nil, d.err
		}
		f.Blobs = append(f.Blobs, b)
	}
	if err := d.expect(deltaEndMagic, fmt.Errorf("%w: bad end magic", ErrCorrupt)); err != nil {
		return nil, err
	}
	return f, nil
}
