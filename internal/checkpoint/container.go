package checkpoint

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/trace"
)

// FormatVersion is the container format version this build writes. A
// reader seeing any other version returns ErrVersion — checkpoints are a
// cache of replayable computation, so version skew falls back to a
// from-zero run rather than attempting migration.
const FormatVersion = 1

// File layout (all integers in the package's varint/fixed encodings):
//
//	magic "RRC1"
//	uvarint format version (FormatVersion)
//	uvarint config hash (the run fingerprint recorded by the writer)
//	varint  day (the snapshot's day; state is "end of this day")
//	uvarint stage count, then per stage a length-prefixed name
//	state section (encodeState)
//	per stage, in header order: length-prefixed opaque blob
//	end magic "RRCE"
var (
	fileMagic    = [4]byte{'R', 'R', 'C', '1'}
	fileEndMagic = [4]byte{'R', 'R', 'C', 'E'}
)

// Header identifies a checkpoint: the day it was taken (the shared state
// reflects the end of that day), the writer's config fingerprint, and the
// checkpointed stage names in subscription order. Resume requires an
// exact stage-set and fingerprint match; anything else falls back to a
// from-zero replay.
type Header struct {
	Day        int32
	ConfigHash uint64
	Stages     []string
}

// StageBlob is one stage's serialized accumulator state, opaque to the
// container.
type StageBlob struct {
	Name string
	Data []byte
}

// File is a fully decoded checkpoint.
type File struct {
	Header Header
	State  *trace.State
	Blobs  []StageBlob
}

// Write renders a checkpoint file: header, shared state, and one blob per
// stage (blobs must be in the same order as h.Stages).
func Write(w io.Writer, h Header, st *trace.State, blobs []StageBlob) error {
	if len(blobs) != len(h.Stages) {
		return fmt.Errorf("checkpoint: %d blobs for %d stages", len(blobs), len(h.Stages))
	}
	e := NewEncoder(w)
	e.write(fileMagic[:])
	e.U64(FormatVersion)
	e.U64(h.ConfigHash)
	e.I32(h.Day)
	e.U64(uint64(len(h.Stages)))
	for _, s := range h.Stages {
		e.String(s)
	}
	EncodeState(e, st)
	for _, b := range blobs {
		e.Bytes(b.Data)
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
	n := d.Len()
	if d.err == nil && n > maxSections {
		return Header{}, d.fail(fmt.Errorf("%w: %d stages", ErrTooLarge, n))
	}
	for i := 0; i < n && d.err == nil; i++ {
		h.Stages = append(h.Stages, d.String())
	}
	return h, d.err
}

// ReadHeader decodes just the header — the cheap probe checkpoint
// resolution scans candidate files with. r is read to its end, so it
// should be a bounded prefix of the object.
func ReadHeader(r io.Reader) (Header, error) {
	b, err := readAll(r)
	if err != nil {
		return Header{}, err
	}
	return readHeader(NewDecoder(b))
}

// Read decodes a whole checkpoint file.
func Read(r io.Reader) (*File, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, err
	}
	d := NewDecoder(b)
	h, err := readHeader(d)
	if err != nil {
		return nil, err
	}
	st, err := DecodeState(d)
	if err != nil {
		return nil, err
	}
	f := &File{Header: h, State: st}
	for _, name := range h.Stages {
		data := d.Bytes()
		if d.err != nil {
			return nil, d.err
		}
		f.Blobs = append(f.Blobs, StageBlob{Name: name, Data: data})
	}
	if err := d.expect(fileEndMagic, fmt.Errorf("%w: bad end magic", ErrCorrupt)); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeState serializes the shared replay state: the graph's full
// adjacency structure in insertion order (order is semantic — Louvain
// visiting order and frozen-CSR layout derive from it), the per-node
// day and origin columns, and the day watermark.
func EncodeState(e *Encoder, st *trace.State) {
	n := st.Graph.NumNodes()
	e.U64(uint64(n))
	var ns []graph.NodeID
	for u := 0; u < n; u++ {
		ns = st.Graph.AppendNeighbors(ns[:0], graph.NodeID(u))
		e.U64(uint64(len(ns)))
		for _, v := range ns {
			e.U64(uint64(v))
		}
	}
	e.I32s(st.JoinDay)
	origins := make([]byte, len(st.Origin))
	for i, o := range st.Origin {
		origins[i] = byte(o)
	}
	e.Bytes(origins)
	e.I32(st.Day)
}

// DecodeState is EncodeState's inverse, with the same hardening as the
// rest of the package: node counts are bounded before allocation and
// neighbor ids validated against the node count.
func DecodeState(d *Decoder) (*trace.State, error) {
	n := d.Len()
	if d.err != nil {
		return nil, d.err
	}
	// The graph is rebuilt row by row straight into the arena structure
	// (no intermediate [][]NodeID), preserving adjacency order exactly.
	// Growth stays incremental with the decode, so a corrupt node count
	// cannot force a huge up-front allocation.
	g := graph.New(capLen(n))
	for u := 0; u < n; u++ {
		deg := d.Len()
		if d.err != nil {
			return nil, d.err
		}
		for i := 0; i < deg; i++ {
			v := d.U64()
			if d.err != nil {
				return nil, d.err
			}
			if v >= uint64(n) {
				return nil, d.fail(fmt.Errorf("%w: neighbor %d of %d nodes", ErrCorrupt, v, n))
			}
			g.AppendArc(graph.NodeID(u), graph.NodeID(v))
		}
	}
	if n > 0 {
		g.EnsureNode(graph.NodeID(n - 1))
	}
	if g.Arcs()%2 != 0 {
		return nil, d.fail(fmt.Errorf("%w: odd adjacency ends", ErrCorrupt))
	}
	st := &trace.State{
		Graph:   g,
		JoinDay: d.I32s(),
		Day:     0,
	}
	origins := d.Bytes()
	st.Origin = make([]trace.Origin, len(origins))
	for i, b := range origins {
		st.Origin[i] = trace.Origin(b)
	}
	st.Day = d.I32()
	if d.err != nil {
		return nil, d.err
	}
	if len(st.JoinDay) != n || len(st.Origin) != n {
		return nil, d.fail(fmt.Errorf("%w: column lengths %d/%d for %d nodes", ErrCorrupt, len(st.JoinDay), len(st.Origin), n))
	}
	return st, nil
}
