package trace

import (
	"bufio"
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
// file must be finalized (ErrNotFinalized otherwise), and a segmented
// file's missing or damaged footer is rebuilt by scanning the frame
// headers without its day index. This is the open every consumer of a
// trace path uses.
func OpenTrace(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s, err := openContainer(&blobHandle{ra: f}, fi.Size(), path)
	if err != nil {
		return nil, err
	}
	s.Path, s.blob = path, fileBlob{path: path}
	if s.framed {
		s.cacheID = fileCacheID(path, fi.Size(), s.events)
	}
	return s, nil
}

// openContainer builds the source of a size-byte container read through
// h from its header and footer, without a blob. Only finalized
// containers open. A segmented container whose footer is missing or
// damaged gets its frame table from the frame walk; its day index is
// gone, which costs seek acceleration, never correctness.
func openContainer(h *blobHandle, size int64, label string) (*FileSource, error) {
	hd, err := readHead(h, size)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", label, err)
	}
	if !hd.final {
		return nil, fmt.Errorf("%w: %s: count slot not back-patched (writer in progress or crashed before Close)", ErrNotFinalized, label)
	}
	s := &FileSource{meta: hd.meta, events: hd.count, start: hd.start, index: hd.index, framed: hd.framed, segs: hd.segs}
	if hd.framed && hd.footer < 0 {
		if s.segs, err = scanSegFrames(h, size, nil); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", label, err)
		}
		if n := frameEnd(s.segs).firstEvent; n != hd.count {
			return nil, fmt.Errorf("%w: %s: frames hold %d events, header promises %d", ErrNotFinalized, label, n, hd.count)
		}
	}
	return s, nil
}

// containerHead is what a trace container's header and footer say, read
// without touching the event stream.
type containerHead struct {
	framed bool // a segmented (RRS1) container
	meta   Meta
	count  uint64 // the declared event count; 0 while the slot is poisoned
	final  bool   // the count slot is back-patched: the writer's Close ran
	start  int64  // raw offset of the first event
	// footer is the file offset of a footer that parses, -1 when there
	// is none; end is the raw offset where that footer says the event
	// stream ends.
	footer, end int64
	segs        []segEntry      // a segmented footer's frame table
	index       []DayIndexEntry // the footer's day index; nil unless validIndex holds
}

// readHead is the one read of a container's header and footer, for a
// size-byte container read through h: OpenTrace and openContainer build
// a source from it, and TailProbe re-reads it on every probe. A poisoned
// count slot is no error here (final=false, count 0); each caller
// decides what a running writer's file is worth. A segmented footer is
// kept only if its frames run from the header right up to it and, once
// the header is final, hold exactly the declared events.
func readHead(h *blobHandle, size int64) (containerHead, error) {
	hd := containerHead{footer: -1}
	hdr := make([]byte, min(size, int64(fixedHeaderLen)))
	if err := h.readFull(hdr, 0); err != nil {
		return hd, err
	}
	var err error
	if len(hdr) >= len(segMagic) && [4]byte(hdr[:4]) == segMagic {
		hd.framed = true // start 0: frames address the raw stream
		if hd.meta, hd.count, hd.final, err = parseFixedHeader(hdr, segMagic); err != nil {
			return hd, err
		}
		buf, off, ok := readFooter(h, size, int64(fixedHeaderLen))
		if !ok {
			return hd, nil
		}
		segs, idx, err := parseSegFooter(buf)
		at := frameEnd(segs)
		if err != nil || at.fileOff != off || hd.final && at.firstEvent != hd.count {
			return hd, nil
		}
		hd.footer, hd.end, hd.segs, hd.index = off, at.rawStart, segs, idx
	} else {
		hd.start = int64(fixedHeaderLen)
		if hd.meta, hd.count, hd.final, err = parseFixedHeader(hdr, magic); err != nil {
			return hd, err
		}
		hd.index, hd.footer = readDayIndex(h, size, hd.start)
		hd.end = hd.footer
	}
	if !validIndex(hd.index, hd.meta.Days, hd.count, hd.start, hd.end) {
		hd.index = nil
	}
	return hd, nil
}

// readDayIndex reads a flat container's day-index footer, which must
// start at or past start, and the file offset it starts at: where the
// event stream ends. (nil, -1) means absent or unparseable.
func readDayIndex(h *blobHandle, size, start int64) ([]DayIndexEntry, int64) {
	buf, off, ok := readFooter(h, size, start)
	if !ok {
		return nil, -1
	}
	idx, err := parseDayIndex(buf)
	if err != nil {
		return nil, -1
	}
	return idx, off
}

// validIndex is the one day-index validity rule: the entries span
// exactly the declared stream of count events on days below days,
// between raw offsets start and end — none for an empty stream,
// otherwise the first at the first event and the last before the count,
// the day count and the end. An index failing it reads as absent, never
// as a wrong seek target: OpenAt trusts an entry's event ordinal for the
// resumed decoder's remaining count, and the tail probe trusts a
// finalized file's index instead of decoding.
func validIndex(idx []DayIndexEntry, days int32, count uint64, start, end int64) bool {
	if len(idx) == 0 {
		return count == 0
	}
	last := idx[len(idx)-1]
	return idx[0].Offset == start && last.Event < count && last.Day < days && last.Offset < end
}

// fileCacheID is the frame-cache identity of a finalized container file:
// path plus size plus event count. It is stable across re-opens of the
// same finalized container and distinct the moment the file grows or is
// rewritten in place (live-ingest tails), so stale frames are never
// served — they just age out of the LRU under a dead key.
func fileCacheID(path string, size int64, events uint64) string {
	return fmt.Sprintf("file:%s|%d|%d", path, size, events)
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
	r, err := s.rawReader(h, off, math.MaxInt64)
	if err != nil {
		h.Close()
		return nil, err
	}
	dec := resumeDecoder(bufio.NewReader(r), s.events-skipped, prevDay)
	return &fileCursor{h: h, dec: dec}, nil
}

// rawReader maps the raw event stream between raw offsets off and end
// onto the container's bytes, read through h: the one mapper every
// cursor and the tail probe decode through. In a flat container a raw
// offset is a file offset. In a segmented one the frame table maps it
// to a frame, and segStreamReader fetches, verifies and inflates each
// frame (or takes it from the frame cache) as the decoder crosses it;
// the bytes before off inside the first frame are discarded, and no
// frame starting at or past end is read.
func (s *FileSource) rawReader(h *blobHandle, off, end int64) (io.Reader, error) {
	if !s.framed {
		return io.NewSectionReader(h, off, end-off), nil
	}
	segs := s.segs[:sort.Search(len(s.segs), func(k int) bool { return s.segs[k].rawStart >= end })]
	k := sort.Search(len(segs), func(k int) bool { return segs[k].rawEnd() > off })
	if k == len(segs) && off > 0 {
		return nil, fmt.Errorf("%w: raw offset %d points past the segment table", ErrSegmentCorrupt, off)
	}
	sr := &segStreamReader{h: h, segs: segs, next: k, cacheID: s.cacheID}
	if k < len(segs) && off > segs[k].rawStart {
		if _, err := io.CopyN(io.Discard, sr, off-segs[k].rawStart); err != nil {
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

// traceBlob abstracts where a container's bytes live: a local file, or
// an in-memory buffer (tests, fuzzing).
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
