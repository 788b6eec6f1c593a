package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Segmented (compressed) trace format, magic "RRS1":
//
//	fixed header — identical layout to the flat file's (magic,
//	uvarint(encMetaPad), space-padded meta slot, padded-uvarint count),
//	so the same back-patch-on-Close discipline applies and a crashed
//	writer's file fails loudly instead of passing as empty.
//
//	then a run of frames, each:
//	  magic "RRSG" (4 bytes)
//	  uint32 LE compressed length, raw length, event count
//	  uint32 LE first day, last day, previous-day watermark
//	  uint32 LE CRC-32 (IEEE) of the compressed payload
//	  compressed payload: the frame's events in the columnar transposed
//	  layout (transposeFrame), flate-compressed. The *raw* form of a
//	  frame is still the exact appendEvent byte stream the flat format
//	  uses, with the day-delta watermark running *continuously across
//	  frames* — concatenating every frame's decoded raw bytes yields
//	  precisely the flat file's event stream, and all offsets in the
//	  frame header, footer and day index are raw-stream coordinates.
//
//	footer, magic "RRX2" (see appendSegFooter), then the same fixed
//	trailer the flat day-index footer uses (uint64 LE footer length +
//	"RRXE"), so one trailer-discovery routine serves both formats.
//
// Frames are cut at day boundaries once ~1 MiB of raw bytes is pending
// (or mid-day at a hard cap / on Flush), so a day-addressable read
// decompresses only the frames its days live in: the footer's segment
// table plus the embedded day index map a day to (segment, raw offset)
// without touching the prefix. Compression is stdlib flate at BestSpeed
// over the transposed columns: the container must not grow a dependency
// (DESIGN.md §10), and flate alone on the row-interleaved stream tops
// out near 68% of flat — grouping like fields into runs (kinds, day
// deltas, delta-coded ids) is what gets the container under the ≤60%
// acceptance bar while keeping decode cheap.
//
// Each completed frame is written with a single Write call, so a tail
// prober watching the file observes only whole frames (or a torn tail it
// can wait out) — that is what lets TailProbe seal days out of a live
// compressed writer without ever seeing a half-compressed block.

var (
	segMagic       = [4]byte{'R', 'R', 'S', '1'}
	segFrameMagic  = [4]byte{'R', 'R', 'S', 'G'}
	segFooterMagic = [4]byte{'R', 'R', 'X', '2'}
)

const (
	segFooterVersion = 1
	// segFrameHdrLen is the fixed frame header: magic + 7 uint32 fields.
	segFrameHdrLen = 4 + 7*4
	// segTargetRaw is the raw-byte threshold past which the encoder cuts
	// the pending frame at the next day boundary.
	segTargetRaw = 1 << 20
	// segMaxRaw force-cuts a frame mid-day, bounding encoder memory and
	// frame size when a single day exceeds the target many times over.
	segMaxRaw = 8 << 20
	// maxSegFrameLen bounds the lengths a frame or footer entry may
	// declare before any allocation trusts them.
	maxSegFrameLen = 1 << 30
	// maxRawEventLen is the longest raw event a frame can decode to: a
	// kind byte and three int32 uvarints (day delta, u, v) of at most 5
	// bytes each.
	maxRawEventLen = 16
)

var (
	// ErrSegmentCorrupt is returned when a segment frame fails its
	// checksum or its payload contradicts the frame header. The wrapped
	// message carries the segment ordinal and file byte offset.
	ErrSegmentCorrupt = errors.New("trace: segment corrupt")
	// ErrNotFinalized is returned when opening a trace whose writer never
	// reached Close (poisoned count slot, or segmented frames beyond what
	// the header accounts for).
	ErrNotFinalized = errors.New("trace: file is not finalized")
)

// segEntry is one frame's position in both address spaces: the file
// (where its compressed bytes live) and the raw event stream (what it
// decompresses to). The raw coordinates are what the day index points
// into.
type segEntry struct {
	fileOff    int64 // file offset of the frame header
	compLen    int64
	rawLen     int64
	rawStart   int64  // raw-stream offset of the frame's first byte
	events     uint64 // events encoded in this frame
	firstEvent uint64 // ordinal of the frame's first event
	firstDay   int32
	lastDay    int32
	prevDay    int32 // day-delta watermark before the frame's first event
}

func (s segEntry) fileEnd() int64 { return s.fileOff + segFrameHdrLen + s.compLen }
func (s segEntry) rawEnd() int64  { return s.rawStart + s.rawLen }

// plausible reports whether a frame header can describe a real frame
// following one whose last day was prevLast: both lengths in (0,
// maxSegFrameLen], at least one event, between 1 and maxRawEventLen raw
// bytes per event, and days that continue the stream. The frame CRC
// covers only the payload, so every reader checks this before an
// allocation trusts the header's lengths.
func (s segEntry) plausible(prevLast int32) bool {
	return s.compLen > 0 && s.compLen <= maxSegFrameLen && s.rawLen > 0 && s.rawLen <= maxSegFrameLen &&
		s.events > 0 && int64(s.events) <= s.rawLen && s.rawLen <= maxRawEventLen*int64(s.events) &&
		s.prevDay == prevLast && s.firstDay >= s.prevDay && s.lastDay >= s.firstDay
}

// NewSegEncoder returns a segmented-trace sink writing to ws. Like
// NewEncoder's, the header's count slot stays poisoned until Close, and
// closing the underlying file is the caller's job. The header is written
// lazily, before the first frame, so SetSeed/SetMergeDay calls made
// before any event (the generator's pattern) are visible to a concurrent
// TailProbe from the start. A segmented file's raw offsets start at 0.
func NewSegEncoder(ws io.WriteSeeker) (*Encoder, error) {
	cw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	e := &Encoder{ws: ws, magic: segMagic, maxRaw: segMaxRaw, comp: cw}
	e.meta.MergeDay = -1
	return e, nil
}

// transposeFrame re-encodes one frame's raw appendEvent byte run into
// the columnar layout that gets flate-compressed: a uvarint event
// count, then the per-event fields grouped into column runs —
//
//	kind bytes           (count bytes)
//	day-delta uvarints   (one per event, same values as the raw stream)
//	AddNode ids          (signed varint delta from the previous AddNode id)
//	origin bytes         (one per AddNode)
//	AddEdge U endpoints  (signed varint delta from the previous U)
//	AddEdge V endpoints  (uvarints, same encoding as the raw stream)
//
// Grouping like fields is what makes flate earn its keep: the kind and
// day columns collapse into near-constant runs and sequentially
// assigned node ids into runs of tiny deltas. The transform is exactly
// invertible because appendEvent is the canonical encoder —
// untransposeFrame re-renders the input byte-for-byte.
func transposeFrame(raw []byte) ([]byte, error) {
	var (
		count                uint64
		kinds, days, origins []byte
		ids, us, vs          []byte
		prevID, prevU        int64
	)
	b := raw
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	for len(b) > 0 {
		kind := b[0]
		b = b[1:]
		d, ok := uv()
		if !ok {
			return nil, ErrTruncated
		}
		switch Kind(kind) {
		case AddNode:
			id, ok := uv()
			if !ok || len(b) == 0 {
				return nil, ErrTruncated
			}
			ids = binary.AppendVarint(ids, int64(id)-prevID)
			prevID = int64(id)
			origins = append(origins, b[0])
			b = b[1:]
		case AddEdge:
			u, ok := uv()
			if !ok {
				return nil, ErrTruncated
			}
			v, ok := uv()
			if !ok {
				return nil, ErrTruncated
			}
			us = binary.AppendVarint(us, int64(u)-prevU)
			prevU = int64(u)
			vs = binary.AppendUvarint(vs, v)
		default:
			return nil, ErrBadKind
		}
		kinds = append(kinds, kind)
		days = binary.AppendUvarint(days, d)
		count++
	}
	out := make([]byte, 0, binary.MaxVarintLen64+len(kinds)+len(days)+len(ids)+len(origins)+len(us)+len(vs))
	out = binary.AppendUvarint(out, count)
	out = append(out, kinds...)
	out = append(out, days...)
	out = append(out, ids...)
	out = append(out, origins...)
	out = append(out, us...)
	out = append(out, vs...)
	return out, nil
}

// untransposeFrame inverts transposeFrame, re-rendering the exact raw
// appendEvent byte run via the canonical encoder. prevDay is the day
// watermark in force before the frame's first event; rawLen and events
// are the frame header's promises, and any malformed column, count
// mismatch, out-of-range value, or reconstructed length other than
// rawLen is an error the callers wrap as ErrSegmentCorrupt.
func untransposeFrame(tp []byte, prevDay int32, rawLen int64, events uint64) ([]byte, error) {
	b := tp
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, ErrTruncated
	}
	b = b[n:]
	if count != events {
		return nil, fmt.Errorf("column event count %d contradicts frame header %d", count, events)
	}
	if count > uint64(len(b)) {
		return nil, ErrTruncated
	}
	kinds := b[:count]
	b = b[count:]
	var nodes, edges int
	for _, k := range kinds {
		switch Kind(k) {
		case AddNode:
			nodes++
		case AddEdge:
			edges++
		default:
			return nil, ErrBadKind
		}
	}
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, ErrTruncated
		}
		b = b[n:]
		return v, nil
	}
	sv := func(prev int64) (int64, error) {
		d, n := binary.Varint(b)
		if n <= 0 {
			return 0, ErrTruncated
		}
		b = b[n:]
		v := prev + d
		if v < 0 || v > math.MaxInt32 {
			return 0, ErrIDOverflow
		}
		return v, nil
	}
	days := make([]uint64, count)
	for i := range days {
		d, err := uv()
		if err != nil {
			return nil, err
		}
		days[i] = d
	}
	ids := make([]int32, nodes)
	var prev int64
	for i := range ids {
		v, err := sv(prev)
		if err != nil {
			return nil, err
		}
		ids[i], prev = int32(v), v
	}
	if len(b) < nodes {
		return nil, ErrTruncated
	}
	origins := b[:nodes]
	b = b[nodes:]
	us := make([]int32, edges)
	prev = 0
	for i := range us {
		v, err := sv(prev)
		if err != nil {
			return nil, err
		}
		us[i], prev = int32(v), v
	}
	vs := make([]int32, edges)
	for i := range vs {
		v, err := uv()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, ErrIDOverflow
		}
		vs[i] = int32(v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after columns", len(b))
	}
	out := make([]byte, 0, rawLen)
	day := prevDay
	var ni, ei int
	for i, k := range kinds {
		d := days[i]
		if d > math.MaxInt32 || int64(day)+int64(d) > math.MaxInt32 {
			return nil, ErrDayOverflow
		}
		ev := Event{Kind: Kind(k), Day: day + int32(d)}
		switch ev.Kind {
		case AddNode:
			ev.U = ids[ni]
			ev.Origin = Origin(origins[ni])
			ni++
		case AddEdge:
			ev.U, ev.V = us[ei], vs[ei]
			ei++
		}
		var err error
		out, err = appendEvent(out, ev, day)
		if err != nil {
			return nil, err
		}
		day = ev.Day
	}
	if int64(len(out)) != rawLen {
		return nil, fmt.Errorf("columns decode to %d raw bytes, frame promises %d", len(out), rawLen)
	}
	return out, nil
}

// inflateFrame decompresses and un-transposes one checksum-verified
// frame payload into its raw appendEvent byte run. Errors carry no
// position; the callers wrap them with the segment ordinal and offset.
func inflateFrame(payload []byte, seg segEntry) ([]byte, error) {
	// A frame's transposed form is at most ~10 bytes per event larger
	// than its raw form (a signed varint can outgrow the unsigned byte
	// it replaces), so cap the inflate: a corrupt or hostile payload
	// that blows past the bound is rejected before untransposeFrame
	// sizes any allocation off it.
	limit := seg.rawLen + 10*int64(seg.events) + 16
	fr := flate.NewReader(bytes.NewReader(payload))
	defer fr.Close()
	var buf bytes.Buffer
	n, err := io.Copy(&buf, io.LimitReader(fr, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("transposed payload exceeds %d-byte plausibility bound", limit)
	}
	return untransposeFrame(buf.Bytes(), seg.prevDay, seg.rawLen, seg.events)
}

// cutFrame compresses and writes the pending raw bytes as the frame that
// follows the last one written. The frame (header plus payload) goes
// down in a single Write so a concurrent tail prober never observes half
// a frame header.
func (e *Encoder) cutFrame() error {
	tp, err := transposeFrame(e.raw)
	if err != nil {
		// Unreachable in practice: e.raw is appendEvent's own output.
		return fmt.Errorf("trace: transposing frame: %w", err)
	}
	e.compBuf.Reset()
	e.compBuf.Grow(segFrameHdrLen + len(e.raw)/2)
	e.compBuf.Write(make([]byte, segFrameHdrLen)) // header slot, patched below
	e.comp.Reset(&e.compBuf)
	if _, err := e.comp.Write(tp); err != nil {
		return err
	}
	if err := e.comp.Close(); err != nil {
		return err
	}
	frame := e.compBuf.Bytes()
	payload := frame[segFrameHdrLen:]
	// The frame's first day is its first event's day delta (after the
	// kind byte) over the watermark the previous frame leaves.
	seg := frameEnd(e.segs)
	delta, _ := binary.Uvarint(e.raw[1:])
	seg.compLen, seg.rawLen = int64(len(payload)), int64(len(e.raw))
	seg.events = e.count - seg.firstEvent
	seg.firstDay, seg.lastDay = seg.prevDay+int32(delta), e.prevDay
	copy(frame[:4], segFrameMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], uint32(seg.compLen))
	binary.LittleEndian.PutUint32(frame[8:], uint32(seg.rawLen))
	binary.LittleEndian.PutUint32(frame[12:], uint32(seg.events))
	binary.LittleEndian.PutUint32(frame[16:], uint32(seg.firstDay))
	binary.LittleEndian.PutUint32(frame[20:], uint32(seg.lastDay))
	binary.LittleEndian.PutUint32(frame[24:], uint32(seg.prevDay))
	binary.LittleEndian.PutUint32(frame[28:], crc32.ChecksumIEEE(payload))
	if _, err := e.ws.Write(frame); err != nil {
		return err
	}
	e.segs = append(e.segs, seg)
	return nil
}

// Segment footer layout (magic through CRC; the caller appends the
// shared fixed trailer):
//
//	magic "RRX2"
//	uvarint footer version (1)
//	uvarint segment count
//	per segment: uvarint compressed length, raw length, event count,
//	             first day, last day, previous-day watermark
//	  (file offsets, raw offsets and first-event ordinals are not stored;
//	   they are cumulative sums a parser re-derives)
//	uvarint day-index length, then an RRX1 day-index block (appendDayIndex)
//	  whose entry Offsets are raw-stream offsets
//	uint32 LE CRC-32 (IEEE) of everything above
func appendSegFooter(dst []byte, segs []segEntry, idx []DayIndexEntry) []byte {
	start := len(dst)
	dst = append(dst, segFooterMagic[:]...)
	dst = binary.AppendUvarint(dst, segFooterVersion)
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	for _, s := range segs {
		dst = binary.AppendUvarint(dst, uint64(s.compLen))
		dst = binary.AppendUvarint(dst, uint64(s.rawLen))
		dst = binary.AppendUvarint(dst, s.events)
		dst = binary.AppendUvarint(dst, uint64(s.firstDay))
		dst = binary.AppendUvarint(dst, uint64(s.lastDay))
		dst = binary.AppendUvarint(dst, uint64(s.prevDay))
	}
	idxBytes := appendDayIndex(nil, idx)
	dst = binary.AppendUvarint(dst, uint64(len(idxBytes)))
	dst = append(dst, idxBytes...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crc[:]...)
}

// parseSegFooter decodes an appendSegFooter rendering. Like the flat day
// index, any structural or checksum problem means the footer reads as
// absent — the frames are self-describing and a scan rebuilds the table.
func parseSegFooter(b []byte) ([]segEntry, []DayIndexEntry, error) {
	if len(b) < len(segFooterMagic)+4 || [4]byte(b[:4]) != segFooterMagic {
		return nil, nil, errors.New("trace: bad segment footer magic")
	}
	crc := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != crc {
		return nil, nil, errors.New("trace: segment footer checksum mismatch")
	}
	b = b[4 : len(b)-4]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, errors.New("trace: truncated segment footer")
		}
		b = b[n:]
		return v, nil
	}
	ver, err := next()
	if err != nil {
		return nil, nil, err
	}
	if ver != segFooterVersion {
		return nil, nil, fmt.Errorf("trace: segment footer version %d", ver)
	}
	count, err := next()
	if err != nil {
		return nil, nil, err
	}
	if count > maxIndexEntries {
		return nil, nil, fmt.Errorf("trace: footer declares %d segments", count)
	}
	segs := make([]segEntry, 0, min(count, 1<<16))
	for i := uint64(0); i < count; i++ {
		var vs [6]uint64
		for j := range vs {
			if vs[j], err = next(); err != nil {
				return nil, nil, err
			}
		}
		at := frameEnd(segs)
		s := segEntry{
			fileOff:    at.fileOff,
			compLen:    int64(vs[0]),
			rawLen:     int64(vs[1]),
			rawStart:   at.rawStart,
			events:     vs[2],
			firstEvent: at.firstEvent,
			firstDay:   int32(vs[3]),
			lastDay:    int32(vs[4]),
			prevDay:    int32(vs[5]),
		}
		if vs[2] > vs[1] || vs[3] > math.MaxInt32 || vs[4] > math.MaxInt32 || vs[5] > math.MaxInt32 || !s.plausible(at.prevDay) {
			return nil, nil, errors.New("trace: segment footer entry out of range")
		}
		segs = append(segs, s)
	}
	idxLen, err := next()
	if err != nil {
		return nil, nil, err
	}
	if idxLen > uint64(len(b)) {
		return nil, nil, errors.New("trace: truncated segment footer index")
	}
	var idx []DayIndexEntry
	if idxLen > 0 {
		if idx, err = parseDayIndex(b[:idxLen]); err != nil {
			return nil, nil, err
		}
	}
	return segs, idx, nil
}

// parseFrameHeader decodes the frame header hdr found at file offset
// off. The frame's raw-stream position — rawStart and firstEvent, which
// the header does not store — comes from the frames before it.
func parseFrameHeader(hdr []byte, off, rawStart int64, firstEvent uint64) segEntry {
	return segEntry{
		fileOff:    off,
		compLen:    int64(binary.LittleEndian.Uint32(hdr[4:])),
		rawLen:     int64(binary.LittleEndian.Uint32(hdr[8:])),
		rawStart:   rawStart,
		events:     uint64(binary.LittleEndian.Uint32(hdr[12:])),
		firstEvent: firstEvent,
		firstDay:   int32(binary.LittleEndian.Uint32(hdr[16:])),
		lastDay:    int32(binary.LittleEndian.Uint32(hdr[20:])),
		prevDay:    int32(binary.LittleEndian.Uint32(hdr[24:])),
	}
}

// frameEnd returns where the frame after the table's last one starts, in
// both address spaces: its file and raw offsets and first event ordinal,
// with the day watermark in force there as prevDay. For an empty table
// that is the stream's start.
func frameEnd(segs []segEntry) segEntry {
	if len(segs) == 0 {
		return segEntry{fileOff: int64(fixedHeaderLen)}
	}
	last := segs[len(segs)-1]
	return segEntry{fileOff: last.fileEnd(), rawStart: last.rawEnd(), firstEvent: last.firstEvent + last.events, prevDay: last.lastDay}
}

// scanSegFrames is the one frame walk: it extends the frame table segs
// with the complete frames that follow its last one in a size-byte
// container, reading only their headers (32 bytes per ~1 MiB frame; the
// loader's CRC check guards the payloads). openContainer rebuilds a
// footer-less table with it, and TailProbe resumes it on every probe.
// The walk stops at the first thing that is not a complete frame: the
// footer, a torn tail, or garbage. A header no real frame can have is
// ErrSegmentCorrupt, returned with the frames before it.
func scanSegFrames(h *blobHandle, size int64, segs []segEntry) ([]segEntry, error) {
	for {
		at := frameEnd(segs)
		if at.fileOff+segFrameHdrLen > size {
			return segs, nil
		}
		var hdr [segFrameHdrLen]byte
		if err := h.readFull(hdr[:], at.fileOff); err != nil {
			return segs, err
		}
		if [4]byte(hdr[:4]) != segFrameMagic {
			return segs, nil
		}
		s := parseFrameHeader(hdr[:], at.fileOff, at.rawStart, at.firstEvent)
		if !s.plausible(at.prevDay) {
			return segs, fmt.Errorf("%w: segment %d at byte %d: implausible frame header", ErrSegmentCorrupt, len(segs), at.fileOff)
		}
		if s.fileEnd() > size {
			return segs, nil // a torn frame write
		}
		segs = append(segs, s)
	}
}

// segStreamReader presents a run of frames as one contiguous raw event
// stream: each frame is fetched whole, checksum-verified, inflated and
// un-transposed, then served from memory. Corruption surfaces as
// ErrSegmentCorrupt pinned to the segment ordinal and file byte offset.
type segStreamReader struct {
	h       *blobHandle
	segs    []segEntry
	next    int    // next frame to load
	cacheID string // frame-cache identity; "" = uncached

	raw   []byte // unread rest of the current frame's raw bytes
	frame []byte // scratch: current frame's compressed payload
}

func (r *segStreamReader) Read(p []byte) (int, error) {
	for len(r.raw) == 0 {
		if r.next >= len(r.segs) {
			return 0, io.EOF
		}
		if err := r.loadFrame(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.raw)
	r.raw = r.raw[n:]
	return n, nil
}

// loadFrame fetches frame r.next whole, verifies its header against the
// segment table and its payload against the stored CRC, and decodes its
// raw bytes. It is the one frame loader: cursors and the tail probe
// both read frames through it.
func (r *segStreamReader) loadFrame() error {
	seg := r.segs[r.next]
	key := frameCacheKey{blob: r.cacheID, off: seg.fileOff}
	if raw, ok := segFrameCache.get(key); ok {
		// Cache hit: the frame was fetched, CRC-verified, and inflated
		// by an earlier cursor; serve the shared read-only bytes without
		// touching the blob at all.
		r.raw = raw
		r.next++
		return nil
	}
	prevLast := int32(0)
	if r.next > 0 {
		prevLast = r.segs[r.next-1].lastDay
	}
	if !seg.plausible(prevLast) {
		return fmt.Errorf("%w: segment %d at byte %d: implausible frame header", ErrSegmentCorrupt, r.next, seg.fileOff)
	}
	need := segFrameHdrLen + int(seg.compLen)
	if cap(r.frame) < need {
		r.frame = make([]byte, need)
	}
	r.frame = r.frame[:need]
	if err := r.h.readFull(r.frame, seg.fileOff); err != nil {
		return fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, r.next, seg.fileOff, err)
	}
	hdr, payload := r.frame[:segFrameHdrLen], r.frame[segFrameHdrLen:]
	if [4]byte(hdr[:4]) != segFrameMagic ||
		int64(binary.LittleEndian.Uint32(hdr[4:])) != seg.compLen ||
		int64(binary.LittleEndian.Uint32(hdr[8:])) != seg.rawLen {
		return fmt.Errorf("%w: segment %d at byte %d: frame header contradicts segment table", ErrSegmentCorrupt, r.next, seg.fileOff)
	}
	if crc := binary.LittleEndian.Uint32(hdr[28:]); crc32.ChecksumIEEE(payload) != crc {
		return fmt.Errorf("%w: segment %d at byte %d: checksum mismatch", ErrSegmentCorrupt, r.next, seg.fileOff)
	}
	raw, err := inflateFrame(payload, seg)
	if err != nil {
		return fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, r.next, seg.fileOff, err)
	}
	segFrameCache.countMiss(seg.rawLen)
	segFrameCache.put(key, raw)
	r.raw = raw
	r.next++
	return nil
}
