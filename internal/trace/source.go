package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Cursor is one forward pass over a trace's events.
type Cursor interface {
	// Next returns the next event in trace order. ok=false signals a clean
	// end of the stream; a non-nil error means the pass failed (I/O error,
	// corrupt input) and the cursor is dead.
	Next() (Event, bool, error)
	// Close releases the pass's resources. It is safe to call after
	// exhaustion and must be called exactly once per cursor.
	Close() error
}

// Source is a re-openable stream of trace events — the data-plane
// abstraction every analysis layer consumes (see DESIGN.md §4). Open
// returns a fresh Cursor positioned at the first event; OpenAt one
// positioned at the first event whose day is >= day (day <= 0 is Open),
// without decoding the prefix where the source can seek — what
// checkpoint resume and mid-trace reads are built on. Concurrent passes
// each own their cursor, so both must be safe for concurrent use.
type Source interface {
	Open() (Cursor, error)
	OpenAt(day int32) (Cursor, error)
}

// MetaSource is a Source that knows its trace's Meta without a pass: a
// decoded file header, or a generated trace's summary. Pipeline drivers
// use it for capacity hints and the merge-day gate.
type MetaSource interface {
	Source
	Meta() Meta
}

// EventsThrough returns how many events in the source have Day <= day,
// for sources that can answer without a replay pass: a day-indexed
// FileSource (index lookup) or an in-memory slice (binary search).
// ok=false means the source cannot say cheaply. The checkpoint plane
// uses it as a consistency probe: a restored state must account for
// exactly this many events, or the trace is not the one the checkpoint
// was written against (e.g. regenerated with the same seed but different
// generator knobs).
func EventsThrough(src Source, day int32) (int64, bool) {
	switch s := src.(type) {
	case *FileSource:
		if s.index == nil {
			return 0, false
		}
		i := sort.Search(len(s.index), func(i int) bool { return s.index[i].Day > day })
		if i == len(s.index) {
			return int64(s.events), true
		}
		return int64(s.index[i].Event), true
	case SliceSource:
		return int64(sort.Search(len(s), func(i int) bool { return s[i].Day > day })), true
	case TraceSource:
		return EventsThrough(SliceSource(s.Trace.Events), day)
	}
	return 0, false
}

// openSkipping opens src and advances past every event with Day < day,
// returning a cursor that yields the remainder (the boundary event is
// buffered): the decode-and-discard fallback for a FileSource without a
// day index.
func openSkipping(src Source, day int32) (Cursor, error) {
	cur, err := src.Open()
	if err != nil {
		return nil, err
	}
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return nil, err
		}
		if !ok {
			return cur, nil
		}
		if ev.Day >= day {
			return &pendingCursor{Cursor: cur, pending: ev, has: true}, nil
		}
	}
}

// pendingCursor replays one buffered event before resuming its inner
// cursor.
type pendingCursor struct {
	Cursor
	pending Event
	has     bool
}

func (c *pendingCursor) Next() (Event, bool, error) {
	if c.has {
		c.has = false
		return c.pending, true, nil
	}
	return c.Cursor.Next()
}

// SliceSource adapts an in-memory event slice to Source. It is the
// trivial data plane: Open costs nothing and cursors share the slice.
type SliceSource []Event

// Open implements Source.
func (s SliceSource) Open() (Cursor, error) { return &sliceCursor{events: s}, nil }

// OpenAt implements Source by binary search over the day-ordered
// events.
func (s SliceSource) OpenAt(day int32) (Cursor, error) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Day >= day })
	return &sliceCursor{events: s, i: i}, nil
}

type sliceCursor struct {
	events []Event
	i      int
}

func (c *sliceCursor) Next() (Event, bool, error) {
	if c.i >= len(c.events) {
		return Event{}, false, nil
	}
	ev := c.events[c.i]
	c.i++
	return ev, true, nil
}

func (c *sliceCursor) Close() error { return nil }

// TraceSource adapts a full in-memory Trace to a MetaSource.
type TraceSource struct{ Trace *Trace }

// Open implements Source.
func (s TraceSource) Open() (Cursor, error) { return SliceSource(s.Trace.Events).Open() }

// OpenAt implements Source.
func (s TraceSource) OpenAt(day int32) (Cursor, error) {
	return SliceSource(s.Trace.Events).OpenAt(day)
}

// Meta implements MetaSource.
func (s TraceSource) Meta() Meta { return s.Trace.Meta }

// Source returns the trace as a re-openable MetaSource.
func (tr *Trace) Source() MetaSource { return TraceSource{Trace: tr} }

// FileSource replays a trace container straight off its bytes: every
// Open decodes the stream incrementally through a Decoder, so a pass
// holds O(1) memory regardless of event count — the out-of-core data
// plane. One type reads every container (DESIGN.md §10): a flat (RRT1)
// and a segmented (RRS1) trace decode to the same raw event stream, the
// source addresses that stream in raw offsets (start, and the day
// index's entries), and the two formats differ only in how a raw offset
// maps to bytes (rawReader).
//
// A FileSource is count-bounded at open: every cursor decodes exactly
// the events counted then, so a writer appending days in place — or
// atomically replacing the file with a prefix-stable extension — never
// changes what a pass reads. A TailSnapshot's sealed prefix is the same
// type with a smaller count, its sealed Meta and an index prefix.
type FileSource struct {
	Path string // "" when backend- or memory-backed

	blob   traceBlob
	meta   Meta
	events uint64          // the count bound: events every pass replays
	start  int64           // raw offset of the first event
	index  []DayIndexEntry // raw offsets; nil when absent or invalid

	// Segmented containers only: the frame table mapping raw offsets to
	// frames, and the container's key in the process-wide inflated-frame
	// cache ("" serves it uncached; see framecache.go).
	framed  bool
	segs    []segEntry
	cacheID string
}

// OpenTrace opens a trace file of either container format, sniffing the
// magic. It reads the header and the footer (a flat file's day index, a
// segmented file's segment table), never the events. A flat index-less
// file still opens, and OpenAt then decodes and discards the prefix; a
// segmented file must be finalized (ErrNotFinalized otherwise), and a
// missing or damaged footer is rebuilt by scanning the frame headers
// without its day index. This is the open every consumer of a trace
// path uses.
func OpenTrace(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var mag [4]byte
	if _, err := f.ReadAt(mag[:], 0); err == nil && mag == segMagic {
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		s, err := openFramed(&blobHandle{ra: f}, fi.Size(), path)
		if err != nil {
			return nil, err
		}
		s.Path, s.blob = path, fileBlob{path: path}
		s.cacheID = fileCacheID(path, fi.Size(), s.events)
		return s, nil
	}
	meta, events, start, err := parseStreamHeader(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	index, _ := readDayIndexOff(f, events) // best effort; nil means "no index"
	return &FileSource{
		Path:   path,
		blob:   fileBlob{path: path},
		meta:   meta,
		events: events,
		start:  start,
		index:  index,
	}, nil
}

// fileCacheID is the frame-cache identity of a finalized container file:
// path plus size plus event count. It is stable across re-opens of the
// same finalized container and distinct the moment the file grows or is
// rewritten in place (live-ingest tails), so stale frames are never
// served — they just age out of the LRU under a dead key.
func fileCacheID(path string, size int64, events uint64) string {
	return fmt.Sprintf("file:%s|%d|%d", path, size, events)
}

// readDayIndexOff reads the day-index footer from the end of the file,
// and the byte offset the footer starts at — equivalently, where the
// event stream ends. Appenders truncate the file there before extending
// it; the tail prober uses it to bound its decode. Any failure — no
// trailer, short file, checksum mismatch, entries that point outside
// the file or past events — yields (nil, -1): an index is an
// accelerator, never a correctness requirement.
func readDayIndexOff(f *os.File, events uint64) ([]DayIndexEntry, int64) {
	fi, err := f.Stat()
	if err != nil {
		return nil, -1
	}
	buf, off, ok := readFooter(&blobHandle{ra: f}, fi.Size(), 0)
	if !ok {
		return nil, -1
	}
	idx, err := parseDayIndex(buf)
	if err != nil {
		return nil, -1
	}
	if len(idx) > 0 {
		last := idx[len(idx)-1]
		if last.Event >= events || last.Offset >= off {
			return nil, -1
		}
	}
	return idx, off
}

// readFooter returns the footer that the fixed trailer at the end of a
// size-byte container points at, and the offset the footer starts at —
// the one trailer discovery both container formats use. The footer must
// start at or past minOff. ok=false means absent or implausible.
func readFooter(h *blobHandle, size, minOff int64) (footer []byte, off int64, ok bool) {
	if size < minOff+indexTrailerLen {
		return nil, -1, false
	}
	var trailer [indexTrailerLen]byte
	if h.readFull(trailer[:], size-indexTrailerLen) != nil || [4]byte(trailer[8:12]) != indexEndMagic {
		return nil, -1, false
	}
	n := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if n <= 0 || n > size-indexTrailerLen-minOff || n > maxIndexFooterBytes {
		return nil, -1, false
	}
	off = size - indexTrailerLen - n
	footer = make([]byte, n)
	if h.readFull(footer, off) != nil {
		return nil, -1, false
	}
	return footer, off, true
}

// maxIndexFooterBytes bounds how large a footer readFooter will load.
const maxIndexFooterBytes = 1 << 28

// Meta implements MetaSource with the metadata counted at open.
func (s *FileSource) Meta() Meta { return s.meta }

// Events returns the count bound: how many events every pass replays.
func (s *FileSource) Events() uint64 { return s.events }

// Index returns the day index (raw-stream offsets), nil when absent.
// The slice is shared and must not be modified.
func (s *FileSource) Index() []DayIndexEntry { return s.index }

// Open implements Source: each pass opens its own handle and decoder, so
// concurrent passes (the parallel pass's reference replays) never share
// position state.
func (s *FileSource) Open() (Cursor, error) { return s.openAt(s.start, 0, 0) }

// OpenAt implements Source. With a day index the cursor starts at the
// first event of the requested day and reads nothing before it — for a
// segmented container not even the prefix frames; without one it
// decodes and discards the prefix.
func (s *FileSource) OpenAt(day int32) (Cursor, error) {
	if day <= 0 {
		return s.Open()
	}
	if s.index == nil {
		return openSkipping(s, day)
	}
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].Day >= day })
	if i == len(s.index) {
		// Past the last day with events: an exhausted cursor.
		return s.openAt(s.start, s.events, 0)
	}
	e := s.index[i]
	return s.openAt(e.Offset, e.Event, e.PrevDay)
}

// openAt opens a cursor at an event boundary: raw offset off, with
// skipped events before it and day watermark prevDay in force. The
// decoder stops after the count bound's remaining events, so bytes past
// them are never decoded.
func (s *FileSource) openAt(off int64, skipped uint64, prevDay int32) (Cursor, error) {
	h, err := s.blob.open()
	if err != nil {
		return nil, err
	}
	r, err := s.rawReader(h, off)
	if err != nil {
		h.Close()
		return nil, err
	}
	dec := resumeDecoder(bufio.NewReader(r), s.meta, s.events-skipped, prevDay)
	return &fileCursor{h: h, dec: dec}, nil
}

// rawReader maps the raw event stream from raw offset off onto the
// container's bytes, read through h. In a flat container a raw offset
// is a file offset. In a segmented one the frame table maps it to a
// frame, and segStreamReader fetches, verifies and inflates each frame
// (or takes it from the frame cache) as the decoder crosses it; the
// bytes before off inside the first frame are discarded.
func (s *FileSource) rawReader(h *blobHandle, off int64) (io.Reader, error) {
	if !s.framed {
		return io.NewSectionReader(h, off, math.MaxInt64-off), nil
	}
	k := sort.Search(len(s.segs), func(k int) bool { return s.segs[k].rawEnd() > off })
	if k == len(s.segs) && off > 0 {
		return nil, fmt.Errorf("%w: raw offset %d points past the segment table", ErrSegmentCorrupt, off)
	}
	sr := &segStreamReader{h: h, segs: s.segs, next: k, cacheID: s.cacheID}
	if k < len(s.segs) && off > s.segs[k].rawStart {
		if _, err := io.CopyN(io.Discard, sr, off-s.segs[k].rawStart); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// ContainerStats summarizes a trace container for observability
// surfaces (rranalyze -info, the /statz storage section).
type ContainerStats struct {
	// Segmented reports an RRS1 container. The frame figures below are
	// zero for a flat one — and for an empty segmented one, so a zero
	// Segments does not mean flat.
	Segmented bool
	// Segments is the number of compressed frames.
	Segments int
	// RawBytes is the uncompressed event-stream size the frames decode
	// to (the flat format's event-stream size, headers excluded).
	RawBytes int64
	// CompressedBytes is the total compressed payload size.
	CompressedBytes int64
	// Events is the event count.
	Events uint64
	// Indexed reports whether the day index is present.
	Indexed bool
}

// Stats reports the container's shape and compression accounting.
func (s *FileSource) Stats() ContainerStats {
	st := ContainerStats{Segmented: s.framed, Segments: len(s.segs), Events: s.events, Indexed: s.index != nil}
	for _, e := range s.segs {
		st.RawBytes += e.rawLen
		st.CompressedBytes += e.compLen
	}
	return st
}

// fileCursor is one pass over a FileSource: the blob handle it reads
// through and the decoder over the raw stream.
type fileCursor struct {
	h   *blobHandle
	dec *Decoder
}

func (c *fileCursor) Next() (Event, bool, error) { return c.dec.Next() }

func (c *fileCursor) Close() error { return c.h.Close() }

// bytesRead reports how many bytes this cursor has fetched off its blob
// — compressed bytes for a segmented container, so prefix-skip
// accounting observes that skipped frames are not even read.
func (c *fileCursor) bytesRead() int64 { return c.h.n }

// traceBlob abstracts where a container's bytes live: a local file, a
// storage backend object, or an in-memory buffer (tests, fuzzing).
type traceBlob interface {
	open() (*blobHandle, error)
}

// blobHandle is one reader over a blob. It counts the bytes actually
// fetched — the observable that holds prefix-skipping accountable.
type blobHandle struct {
	ra io.ReaderAt
	c  io.Closer
	n  int64
}

// ReadAt implements io.ReaderAt, counting the bytes fetched.
func (h *blobHandle) ReadAt(p []byte, off int64) (int, error) {
	n, err := h.ra.ReadAt(p, off)
	h.n += int64(n)
	return n, err
}

// readFull reads exactly len(p) bytes at off.
func (h *blobHandle) readFull(p []byte, off int64) error {
	n, err := h.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (h *blobHandle) Close() error {
	if h.c != nil {
		return h.c.Close()
	}
	return nil
}

type fileBlob struct{ path string }

func (b fileBlob) open() (*blobHandle, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	return &blobHandle{ra: f, c: f}, nil
}

type bytesBlob struct{ data []byte }

func (b bytesBlob) open() (*blobHandle, error) {
	return &blobHandle{ra: bytes.NewReader(b.data)}, nil
}

// countingReader counts the bytes read through it — the tail probe and
// the appender use it to locate event boundaries in the stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
