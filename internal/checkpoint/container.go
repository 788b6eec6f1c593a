package checkpoint

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/trace"
)

// FormatVersion is the container format version this build writes. A
// reader seeing any other version returns ErrVersion — checkpoints are a
// cache of replayable computation, so version skew falls back to a
// from-zero run rather than attempting migration.
const FormatVersion = 3

// Every checkpoint is a patch against its parent checkpoint. The replay
// state is append-only: a later day never removes a node or an edge and
// never rewrites a neighbor list, it only appends to adjacency lists and
// extends the per-node columns. A patch therefore holds the suffixes
// appended to the parent's nodes, the rows of the new nodes, and the
// stage blobs that changed. A full checkpoint is the patch against the
// empty state: parent day -1, zero parent nodes, every blob present.
//
// Layout (all integers in the package's varint/fixed encodings):
//
//	magic "RRC1"
//	uvarint format version (FormatVersion)
//	uvarint config hash (the run fingerprint recorded by the writer)
//	varint  day (the snapshot's day; state is "end of this day")
//	varint  parent day (-1 for a full checkpoint)
//	uvarint parent sum — FNV-64a over the parent object's exact bytes,
//	        so resume can prove the parent it loads is the one this patch
//	        was written against, not a same-named rewrite (0 for a full)
//	uvarint stage count, then per stage a length-prefixed name
//	uvarint parent node count, uvarint new node count
//	uvarint grown node count, then per parent node whose neighbor list
//	        grew, in ascending order: uvarint node, uvarint suffix
//	        length, the appended neighbor ids
//	per new node: uvarint degree, then its neighbor ids in insertion
//	        order (order is semantic — Louvain visiting order and
//	        frozen-CSR layout derive from it)
//	per new node: varint join day; then per new node: one origin byte
//	varint  state day watermark
//	per stage, in header order: one flag byte — 0 the blob is unchanged
//	        since the parent, 1 a length-prefixed blob follows, 2 a
//	        length-prefixed patch follows (deltas only: the stage's growth
//	        since the parent, see engine.Patcher)
//	end magic "RRCE"
var (
	fileMagic    = [4]byte{'R', 'R', 'C', '1'}
	fileEndMagic = [4]byte{'R', 'R', 'C', 'E'}
)

// The flag byte before each stage's section.
const (
	blobUnchanged = 0
	blobWhole     = 1
	blobPatch     = 2
)

// Header identifies a checkpoint: the day it was taken (the shared state
// reflects the end of that day), the checkpoint it patches, the writer's
// config fingerprint, and the checkpointed stage names in subscription
// order. Resume requires an exact stage-set and fingerprint match;
// anything else falls back to a from-zero replay.
type Header struct {
	Day        int32
	ParentDay  int32 // -1 for a full checkpoint
	ParentSum  uint64
	ConfigHash uint64
	Stages     []string
}

// Full reports whether the checkpoint is a patch against the empty state,
// loadable without any parent.
func (h Header) Full() bool { return h.ParentDay < 0 }

// blobSeed keys BlobSum; it is drawn per process, so a BlobSum is never
// written anywhere.
var blobSeed = maphash.MakeSeed()

// BlobSum hashes a stage blob. A writer keeps the sums of its parent's
// blobs instead of the blobs themselves, to tell which blobs changed.
func BlobSum(b []byte) uint64 { return maphash.Bytes(blobSeed, b) }

// BlobSums returns the BlobSum of each blob.
func BlobSums(blobs [][]byte) []uint64 {
	out := make([]uint64, len(blobs))
	for i, b := range blobs {
		out[i] = BlobSum(b)
	}
	return out
}

// Write renders st as a patch against its parent checkpoint, straight
// from the live state. parentDeg is the parent state's per-node degree
// vector (Degrees) and parentSums the BlobSums of its stage blobs; both
// are nil for a full checkpoint (h.ParentDay < 0). blobs holds one blob
// per h.Stages entry. patch[i] marks blobs[i] as a stage patch against
// the parent (deltas only; nil marks none); a whole blob whose BlobSum
// is the parent's is written as unchanged. An error that st does not
// extend the parent is returned before any byte is written.
func Write(w io.Writer, h Header, st *trace.State, blobs [][]byte, patch []bool, parentDeg []int32, parentSums []uint64) error {
	full := h.Full()
	if len(blobs) != len(h.Stages) || (!full && len(parentSums) != len(blobs)) || (patch != nil && len(patch) != len(blobs)) {
		return fmt.Errorf("checkpoint: %d blobs (%d parent, %d patch flags) for %d stages", len(blobs), len(parentSums), len(patch), len(h.Stages))
	}
	if full && (len(parentDeg) > 0 || len(parentSums) > 0 || slices.Contains(patch, true)) {
		return errors.New("checkpoint: full checkpoint given a parent")
	}
	g := st.Graph
	n, pn := g.NumNodes(), len(parentDeg)
	if n < pn || len(st.JoinDay) != n || len(st.Origin) != n {
		return fmt.Errorf("checkpoint: state of %d nodes (columns %d/%d) does not extend %d parent nodes", n, len(st.JoinDay), len(st.Origin), pn)
	}
	grown := 0
	for u, old := range parentDeg {
		switch deg := g.Degree(graph.NodeID(u)); {
		case deg < int(old):
			return fmt.Errorf("checkpoint: node %d degree shrank %d -> %d — not an extension", u, old, deg)
		case deg > int(old):
			grown++
		}
	}

	e := NewEncoder(w)
	e.write(fileMagic[:])
	e.U64(FormatVersion)
	e.U64(h.ConfigHash)
	e.I32(h.Day)
	e.I32(h.ParentDay)
	e.U64(h.ParentSum)
	e.U64(uint64(len(h.Stages)))
	for _, s := range h.Stages {
		e.String(s)
	}
	e.U64(uint64(pn))
	e.U64(uint64(n - pn))
	e.U64(uint64(grown))
	var row []graph.NodeID
	for u, old := range parentDeg {
		if g.Degree(graph.NodeID(u)) == int(old) {
			continue
		}
		row = g.AppendNeighbors(row[:0], graph.NodeID(u))
		e.U64(uint64(u))
		e.U64(uint64(len(row) - int(old)))
		for _, v := range row[old:] {
			e.U64(uint64(v))
		}
	}
	for u := pn; u < n; u++ {
		row = g.AppendNeighbors(row[:0], graph.NodeID(u))
		e.U64(uint64(len(row)))
		for _, v := range row {
			e.U64(uint64(v))
		}
	}
	for _, d := range st.JoinDay[pn:] {
		e.I32(d)
	}
	for _, o := range st.Origin[pn:] {
		e.buf = append(e.buf, byte(o))
		e.spill()
	}
	e.I32(st.Day)
	for i, b := range blobs {
		flag := byte(blobUnchanged)
		switch {
		case patch != nil && patch[i]:
			flag = blobPatch
		case full || BlobSum(b) != parentSums[i]:
			flag = blobWhole
		}
		e.buf = append(e.buf, flag)
		if flag != blobUnchanged {
			e.Bytes(b)
		}
	}
	e.write(fileEndMagic[:])
	return e.Flush()
}

// readHeader decodes the header with d positioned at the magic.
func readHeader(d *Decoder) (Header, error) {
	if err := d.expect(fileMagic, ErrBadMagic); err != nil {
		return Header{}, err
	}
	if v := d.U64(); d.err == nil && v != FormatVersion {
		return Header{}, d.fail(fmt.Errorf("%w: %d", ErrVersion, v))
	}
	var h Header
	h.ConfigHash = d.U64()
	h.Day = d.I32()
	h.ParentDay = d.I32()
	h.ParentSum = d.U64()
	n := d.Len()
	if d.err == nil && n > maxSections {
		return Header{}, d.fail(fmt.Errorf("%w: %d stages", ErrTooLarge, n))
	}
	for i := 0; i < n && d.err == nil; i++ {
		h.Stages = append(h.Stages, d.String())
	}
	if d.err == nil && h.ParentDay >= h.Day {
		d.fail(fmt.Errorf("%w: day %d patches day %d", ErrCorrupt, h.Day, h.ParentDay))
	}
	return h, d.err
}

// ReadHeader decodes just the header — the cheap probe checkpoint
// resolution scans candidate objects with. b may be the whole object or
// any prefix of it that holds the header.
func ReadHeader(b []byte) (Header, error) {
	return readHeader(NewDecoder(b))
}

// Chain is a checkpoint chain applied link by link, oldest first, into
// one state: the first link is a full checkpoint, each later link a patch
// against the one before it. Patches append to the state in place, so a
// k-deep chain costs one graph, whatever k is. After an Apply error the
// Chain is half-patched and must be discarded.
type Chain struct {
	// Header is the newest applied link's header.
	Header Header
	// State is the shared state that link describes.
	State *trace.State
	// Blobs holds each stage's last whole blob in the chain, in
	// Header.Stages order, and Patches the stage patches written after
	// it, oldest first: the stage's state as of the newest link is
	// LoadState(Blobs[i]) followed by LoadPatch of each Patches[i].
	Blobs   [][]byte
	Patches [][][]byte
}

// Apply decodes one checkpoint object and applies it on top of the chain.
// Neighbor ids are checked against the node count, declared lengths are
// bounded, and the graph grows only as the input delivers rows, so a
// lying header allocates nothing up front.
func (c *Chain) Apply(data []byte) error {
	d := NewDecoder(data)
	h, err := readHeader(d)
	if err != nil {
		return err
	}
	if c.State == nil && !h.Full() {
		return fmt.Errorf("checkpoint: chain starts at day %d, a patch against day %d", h.Day, h.ParentDay)
	}
	if c.State != nil && (h.ParentDay != c.Header.Day || h.ConfigHash != c.Header.ConfigHash || !slices.Equal(h.Stages, c.Header.Stages)) {
		return fmt.Errorf("checkpoint: day %d (parent day %d) does not patch the chain's day %d", h.Day, h.ParentDay, c.Header.Day)
	}
	pn, nn, grown := d.Len(), d.Len(), d.Len()
	if d.err != nil {
		return d.err
	}
	if c.State == nil {
		// Preallocation trusts the declared node count only up to the
		// cap; past it the graph grows as rows arrive.
		c.State = trace.NewState(capLen(nn), 0)
		c.Blobs = make([][]byte, len(h.Stages))
		c.Patches = make([][][]byte, len(h.Stages))
	}
	st, g := c.State, c.State.Graph
	if pn != g.NumNodes() {
		return fmt.Errorf("checkpoint: day %d patches %d parent nodes, state has %d", h.Day, pn, g.NumNodes())
	}
	total := uint64(pn) + uint64(nn)
	if total > math.MaxInt32 {
		return d.fail(fmt.Errorf("%w: %d nodes", ErrTooLarge, total))
	}
	// row reads one neighbor list (or suffix) of k ids onto node u.
	row := func(u graph.NodeID, k int) error {
		for i := 0; i < k; i++ {
			v := d.U64()
			if d.err != nil {
				return d.err
			}
			if v >= total {
				return d.fail(fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, total))
			}
			g.AppendArc(u, graph.NodeID(v))
		}
		return nil
	}
	prev := -1
	for i := 0; i < grown; i++ {
		u, k := d.Len(), d.Len()
		if d.err == nil && (u <= prev || u >= pn) {
			d.fail(fmt.Errorf("%w: grown node %d out of order or range", ErrCorrupt, u))
		}
		if d.err != nil || row(graph.NodeID(u), k) != nil {
			return d.err
		}
		prev = u
	}
	for u := pn; u < pn+nn; u++ {
		if k := d.Len(); d.err != nil || row(graph.NodeID(u), k) != nil {
			return d.err
		}
	}
	if nn > 0 {
		g.EnsureNode(graph.NodeID(total - 1))
	}
	for i := 0; i < nn && d.err == nil; i++ {
		st.JoinDay = append(st.JoinDay, d.I32())
	}
	for _, o := range d.raw(nn) {
		st.Origin = append(st.Origin, trace.Origin(o))
	}
	day := d.I32()
	if d.err != nil {
		return d.err
	}
	if g.Arcs()%2 != 0 {
		return d.fail(fmt.Errorf("%w: odd adjacency ends", ErrCorrupt))
	}
	if !h.Full() && day < st.Day {
		return d.fail(fmt.Errorf("%w: patch day %d before state day %d", ErrCorrupt, day, st.Day))
	}
	st.Day = day
	for i := range h.Stages {
		flag := d.raw(1)
		if flag == nil {
			return d.err
		}
		switch {
		case flag[0] == blobWhole:
			c.Blobs[i], c.Patches[i] = d.Bytes(), nil
		case flag[0] > blobPatch:
			return d.fail(fmt.Errorf("%w: stage %q flag %d", ErrCorrupt, h.Stages[i], flag[0]))
		case h.Full():
			return d.fail(fmt.Errorf("%w: full checkpoint without stage %q", ErrCorrupt, h.Stages[i]))
		case flag[0] == blobPatch:
			c.Patches[i] = append(c.Patches[i], d.Bytes())
		}
	}
	if err := d.expect(fileEndMagic, fmt.Errorf("%w: bad end magic", ErrCorrupt)); err != nil {
		return err
	}
	c.Header = h
	return nil
}

// Degrees summarizes a state for the next patch: the per-node degree
// vector a writer keeps so it can write a patch against this state
// without retaining the whole state.
func Degrees(st *trace.State) []int32 {
	n := st.Graph.NumNodes()
	deg := make([]int32, n)
	for u := 0; u < n; u++ {
		deg[u] = int32(st.Graph.Degree(graph.NodeID(u)))
	}
	return deg
}
