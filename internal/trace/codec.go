package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Flat file format, magic "RRT1":
//
//	magic "RRT1" (4 bytes)
//	uvarint(encMetaPad), JSON-encoded Meta space-padded to encMetaPad bytes
//	event count as a uvarint padded to encCountPad bytes
//	per event: kind (1 byte), uvarint day delta from previous event,
//	           then AddNode: uvarint node id, origin (1 byte)
//	                AddEdge: uvarint u, uvarint v
//	day-index footer and trailer (see appendDayIndex)
//
// Day deltas and dense ids keep typical traces around 5–8 bytes/event.
// The header is fixed-width so the Encoder's Close can back-patch the
// final counters in place. The event encoding (appendEvent) is the raw
// stream both containers share: a segmented file (segment.go) keeps the
// same header layout and cuts the same raw bytes into compressed frames.

var magic = [4]byte{'R', 'R', 'T', '1'}

// Decode hardening bounds and typed errors. The bounds reject
// resource-exhaustion headers before any allocation; the overflow errors
// reject events whose uvarint fields cannot fit the int32 id/day space.
const (
	// maxEventCount bounds the declared event count (~8.6G events).
	maxEventCount = 1 << 33
	// encMetaPad is the fixed, space-padded meta slot the Encoder
	// reserves so Close can rewrite the header in place.
	encMetaPad = 256
	// encCountPad is the fixed width of the Encoder's padded-uvarint
	// event count.
	encCountPad = binary.MaxVarintLen64
	// flatMaxRaw is how many pending raw bytes a flat Encoder holds
	// before it writes them out.
	flatMaxRaw = 1 << 16
)

var (
	// ErrBadMagic is returned when decoding a stream that is not a trace
	// file.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrCountTooLarge is returned when the header declares more than
	// maxEventCount events.
	ErrCountTooLarge = errors.New("trace: event count exceeds limit")
	// ErrBadKind is returned for an event with an unknown kind byte.
	ErrBadKind = errors.New("trace: unknown event kind")
	// ErrIDOverflow is returned when a node id does not fit the int32 id
	// space.
	ErrIDOverflow = errors.New("trace: node id overflows id space")
	// ErrDayOverflow is returned when an accumulated day delta does not
	// fit the int32 day space.
	ErrDayOverflow = errors.New("trace: day overflows day space")
	// ErrTruncated is returned when the stream ends inside an event the
	// header promised.
	ErrTruncated = errors.New("trace: truncated stream")
)

// appendEvent appends one event's encoding to dst. Its errors carry no
// "trace:" prefix; the callers wrap them with one plus the event index.
func appendEvent(dst []byte, ev Event, prevDay int32) ([]byte, error) {
	if ev.Day < prevDay {
		return dst, fmt.Errorf("day regression %d -> %d", prevDay, ev.Day)
	}
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendUvarint(dst, uint64(ev.Day-prevDay))
	switch ev.Kind {
	case AddNode:
		dst = binary.AppendUvarint(dst, uint64(ev.U))
		dst = append(dst, byte(ev.Origin))
	case AddEdge:
		dst = binary.AppendUvarint(dst, uint64(ev.U))
		dst = binary.AppendUvarint(dst, uint64(ev.V))
	default:
		return dst, fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return dst, nil
}

// Decoder incrementally decodes the raw event stream, one event at a
// time through Next, so a pass over an arbitrarily long trace holds O(1)
// memory. Every FileSource cursor, the tail probe and OpenAppend's index
// rebuild decode through one.
type Decoder struct {
	br    *bufio.Reader
	count uint64 // events to decode before the clean end
	read  uint64 // events decoded so far
	day   int32
	err   error // sticky first failure
}

// resumeDecoder returns a decoder positioned at an event boundary: br
// must be positioned at the first byte of an event, remaining is the
// number of events from there to the end of the stream, and day the
// day-delta watermark in force at that boundary. Every FileSource cursor
// is one: Open's at the first event, OpenAt's at a day index entry, with
// remaining taken from the count bound fixed at open.
func resumeDecoder(br *bufio.Reader, remaining uint64, day int32) *Decoder {
	return &Decoder{br: br, count: remaining, day: day}
}

// Next decodes one event. ok=false signals the clean end of the declared
// stream; errors (corruption, truncation, overflow) are sticky.
func (d *Decoder) Next() (Event, bool, error) {
	if d.err != nil {
		return Event{}, false, d.err
	}
	if d.read >= d.count {
		return Event{}, false, nil
	}
	ev, err := d.decodeEvent()
	if err != nil {
		d.err = err
		return Event{}, false, err
	}
	d.read++
	return ev, true, nil
}

// wrap annotates a per-event read failure, converting end-of-stream into
// the typed truncation error (the header promised more events).
func (d *Decoder) wrap(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: event %d %s: %w", ErrTruncated, d.read, what, err)
	}
	return fmt.Errorf("trace: event %d %s: %w", d.read, what, err)
}

func (d *Decoder) readID(what string) (int32, error) {
	u, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, d.wrap(what, err)
	}
	if u > math.MaxInt32 {
		return 0, fmt.Errorf("%w: event %d %s %d", ErrIDOverflow, d.read, what, u)
	}
	return int32(u), nil
}

func (d *Decoder) decodeEvent() (Event, error) {
	kindByte, err := d.br.ReadByte()
	if err != nil {
		return Event{}, d.wrap("kind", err)
	}
	delta, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Event{}, d.wrap("day", err)
	}
	if delta > math.MaxInt32 || int64(d.day)+int64(delta) > math.MaxInt32 {
		return Event{}, fmt.Errorf("%w: event %d day delta %d", ErrDayOverflow, d.read, delta)
	}
	d.day += int32(delta)
	ev := Event{Kind: Kind(kindByte), Day: d.day}
	switch ev.Kind {
	case AddNode:
		if ev.U, err = d.readID("node"); err != nil {
			return Event{}, err
		}
		origin, err := d.br.ReadByte()
		if err != nil {
			return Event{}, d.wrap("origin", err)
		}
		ev.Origin = Origin(origin)
	case AddEdge:
		if ev.U, err = d.readID("u"); err != nil {
			return Event{}, err
		}
		if ev.V, err = d.readID("v"); err != nil {
			return Event{}, err
		}
	default:
		return Event{}, fmt.Errorf("%w: event %d kind %d", ErrBadKind, d.read, kindByte)
	}
	return ev, nil
}

// putUvarint10 writes x as a fixed-width (MaxVarintLen64-byte) varint by
// padding with zero continuation groups; binary.ReadUvarint accepts the
// non-canonical form, which is what lets the Encoder reserve the count
// slot before the count is known.
func putUvarint10(buf []byte, x uint64) {
	for i := 0; i < encCountPad-1; i++ {
		buf[i] = byte(x)&0x7f | 0x80
		x >>= 7
	}
	buf[encCountPad-1] = byte(x)
}

// DayIndexEntry locates the first event of one day in the encoded event
// stream, so a cursor can start mid-trace without decoding the prefix.
type DayIndexEntry struct {
	// Day is the entry's day: the located event is the stream's first
	// event with this Day.
	Day int32
	// Offset is the absolute byte offset of that event's encoding.
	Offset int64
	// Event is that event's ordinal in the stream.
	Event uint64
	// PrevDay is the day-delta watermark in force before that event.
	PrevDay int32
}

// Day-index footer layout, appended by the flat Encoder's Close after
// the event stream and tolerated-if-absent by every decode path (the
// decoder stops after the header's event count, so trailing bytes are
// invisible to it):
//
//	magic "RRX1" (4 bytes)
//	uvarint index version (1)
//	uvarint entry count
//	per entry, delta-encoded against the previous entry:
//	  uvarint day delta, uvarint offset delta, uvarint event delta,
//	  uvarint (day - prevDay) watermark gap
//	uint32 LE CRC-32 (IEEE) of everything above
//	trailer: uint64 LE footer length (magic through CRC), magic "RRXE"
//
// The fixed-width trailer lets a reader find the footer by seeking to the
// end of the file; a file without one (an appender holding the file, or
// a footer lost to damage) decodes as before, without seeking. The CRC
// exists because a damaged index must read as *absent*, never as a wrong
// seek target: OpenAt trusts an entry's event ordinal for the resumed
// decoder's remaining-count, so silent corruption there would truncate a
// replay instead of failing it.
var (
	indexMagic    = [4]byte{'R', 'R', 'X', '1'}
	indexEndMagic = [4]byte{'R', 'R', 'X', 'E'}
)

const (
	indexVersion = 1
	// indexTrailerLen is the fixed trailer: 8-byte length + end magic.
	indexTrailerLen = 8 + 4
	// maxIndexEntries bounds a parsed index (one entry per distinct day).
	maxIndexEntries = 1 << 24
)

// appendTrailer appends the fixed trailer both containers end their
// footer with: the footer's length, then the end magic.
func appendTrailer(footer []byte) []byte {
	footer = binary.LittleEndian.AppendUint64(footer, uint64(len(footer)))
	return append(footer, indexEndMagic[:]...)
}

// appendDayIndex renders the index footer (magic through CRC, no
// trailer).
func appendDayIndex(dst []byte, idx []DayIndexEntry) []byte {
	start := len(dst)
	dst = append(dst, indexMagic[:]...)
	dst = binary.AppendUvarint(dst, indexVersion)
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	var prev DayIndexEntry
	for _, e := range idx {
		dst = binary.AppendUvarint(dst, uint64(e.Day-prev.Day))
		dst = binary.AppendUvarint(dst, uint64(e.Offset-prev.Offset))
		dst = binary.AppendUvarint(dst, e.Event-prev.Event)
		dst = binary.AppendUvarint(dst, uint64(e.Day-e.PrevDay))
		prev = e
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crc[:]...)
}

// parseDayIndex decodes an index footer rendered by appendDayIndex. Any
// structural or checksum problem returns an error; callers treat a bad
// index as absent, never as data corruption — the event stream is
// self-contained.
func parseDayIndex(b []byte) ([]DayIndexEntry, error) {
	if len(b) < len(indexMagic)+4 || [4]byte(b[:4]) != indexMagic {
		return nil, errors.New("trace: bad index magic")
	}
	crc := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[:len(b)-4]) != crc {
		return nil, errors.New("trace: index checksum mismatch")
	}
	b = b[4 : len(b)-4]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, errors.New("trace: truncated index")
		}
		b = b[n:]
		return v, nil
	}
	ver, err := next()
	if err != nil {
		return nil, err
	}
	if ver != indexVersion {
		return nil, fmt.Errorf("trace: index version %d", ver)
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	if count > maxIndexEntries {
		return nil, fmt.Errorf("trace: index declares %d entries", count)
	}
	hint := count
	if hint > 1<<16 {
		hint = 1 << 16
	}
	idx := make([]DayIndexEntry, 0, hint)
	var prev DayIndexEntry
	for i := uint64(0); i < count; i++ {
		var vs [4]uint64
		for j := range vs {
			if vs[j], err = next(); err != nil {
				return nil, err
			}
		}
		day := int64(prev.Day) + int64(vs[0])
		off := prev.Offset + int64(vs[1])
		back := int64(vs[3])
		if day > math.MaxInt32 || off < 0 || back > day {
			return nil, errors.New("trace: index entry out of range")
		}
		e := DayIndexEntry{
			Day:     int32(day),
			Offset:  off,
			Event:   prev.Event + vs[2],
			PrevDay: int32(day - back),
		}
		if i == 0 && (e.Event != 0 || e.PrevDay != 0) {
			return nil, errors.New("trace: index head entry not at stream start")
		}
		if i > 0 && (e.Day <= prev.Day || e.Offset <= prev.Offset || e.Event <= prev.Event) {
			return nil, errors.New("trace: index entries not increasing")
		}
		idx = append(idx, e)
		prev = e
	}
	return idx, nil
}

// Encoder is the incremental trace sink for both containers: events are
// appended one at a time (e.g. straight from gen.GenerateStream) and the
// header — meta counters accumulated from the events plus the event
// count — is back-patched on Close. A trace therefore streams to disk
// without the event slice or the encoded bytes ever being resident. The
// writer must be seekable (a file). Close also appends the footer that
// lets FileSource.OpenAt start a cursor mid-trace: a flat file's day
// index, a segmented file's segment table with its day index.
//
// The two containers share everything but where the pending raw bytes
// go (drain): a flat file takes them as they are, after its header; a
// segmented file cuts them into compressed frames (cutFrame). This
// mirrors the reader, one source over two mappers (FileSource.rawReader).
type Encoder struct {
	ws      io.WriteSeeker
	magic   [4]byte
	meta    Meta
	count   uint64
	prevDay int32
	closed  bool
	started bool // the poisoned header is on disk

	raw      []byte          // pending raw event bytes, not yet written
	rawStart int64           // raw-stream offset of raw[0]
	maxRaw   int             // pending bytes that force a write mid-day
	index    []DayIndexEntry // Offset fields are raw-stream offsets
	scratch  []byte

	// A segmented container's frame writer (nil for a flat one) and the
	// frames written so far.
	comp    *flate.Writer
	compBuf bytes.Buffer
	segs    []segEntry
}

// NewEncoder returns a flat-trace sink writing to ws. It writes the
// header at once, as a placeholder that is deliberately invalid (its
// count slot cannot decode), so a file whose writer crashed before Close
// fails loudly instead of passing as an empty trace. A flat file's raw
// offsets are file offsets: its events start right after the header.
// MergeDay defaults to -1 (no merge); use SetMergeDay/SetSeed to record
// generator knowledge before Close.
func NewEncoder(ws io.WriteSeeker) (*Encoder, error) {
	e := &Encoder{ws: ws, magic: magic, maxRaw: flatMaxRaw, rawStart: int64(fixedHeaderLen)}
	e.meta.MergeDay = -1
	if err := e.writeHeader(); err != nil {
		return nil, err
	}
	return e, nil
}

// SetSeed records the generator seed in the header meta.
func (e *Encoder) SetSeed(seed int64) { e.meta.Seed = seed }

// SetMergeDay records the merge day in the header meta (-1 for none).
func (e *Encoder) SetMergeDay(day int32) { e.meta.MergeDay = day }

// writeHeader writes the poisoned header once. A flat encoder writes it
// at construction, a segmented one before its first frame (or the footer
// of an event-free trace).
func (e *Encoder) writeHeader() error {
	if e.started {
		return nil
	}
	hdr, err := renderFixedHeader(e.magic, e.meta, 0, true)
	if err != nil {
		return err
	}
	if _, err := e.ws.Write(hdr); err != nil {
		return err
	}
	e.started = true
	return nil
}

// renderFixedHeader renders the fixed-width rewritable header both
// containers share: magic, a space-padded meta slot, and a
// padded-uvarint count slot. With poison set the count slot is filled
// with continuation bytes no uvarint reader accepts, so a file whose
// writer crashed before Close fails loudly instead of passing as an
// empty trace.
func renderFixedHeader(mag [4]byte, meta Meta, count uint64, poison bool) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if len(metaJSON) > encMetaPad {
		return nil, fmt.Errorf("trace: meta exceeds the %d-byte encoder slot", encMetaPad)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], encMetaPad)
	hdr := make([]byte, 0, len(mag)+n+encMetaPad+encCountPad)
	hdr = append(hdr, mag[:]...)
	hdr = append(hdr, lenBuf[:n]...)
	pad := make([]byte, encMetaPad)
	for i := range pad {
		pad[i] = ' ' // JSON decoders skip trailing whitespace
	}
	copy(pad, metaJSON)
	hdr = append(hdr, pad...)
	var cnt [encCountPad]byte
	if poison {
		for i := range cnt {
			cnt[i] = 0xff
		}
	} else {
		putUvarint10(cnt[:], count)
	}
	return append(hdr, cnt[:]...), nil
}

// fixedHeaderLen is the fixed-width header's size: magic, the 2-byte
// uvarint of encMetaPad, the padded meta slot, the padded count.
const fixedHeaderLen = len(magic) + 2 + encMetaPad + encCountPad

// errNotFixedHeader marks a header too short for, or not in, the
// fixed-width layout renderFixedHeader writes. The variable-width header
// of the one-shot layout earlier versions could write is one such.
var errNotFixedHeader = errors.New("trace: unsupported header layout (not the fixed-width header; one-shot files do not open)")

// parseFixedHeader decodes the fixed-width header renderFixedHeader
// writes under mag. finalized=false (with nil err) means the count slot
// is still poisoned: the writer has not closed.
func parseFixedHeader(hdr []byte, mag [4]byte) (meta Meta, count uint64, finalized bool, err error) {
	if len(hdr) < len(mag) {
		return meta, 0, false, io.ErrUnexpectedEOF
	}
	if [4]byte(hdr[:4]) != mag {
		return meta, 0, false, ErrBadMagic
	}
	if len(hdr) < fixedHeaderLen {
		return meta, 0, false, fmt.Errorf("%w: %d-byte header is truncated", errNotFixedHeader, len(hdr))
	}
	metaLen, n := binary.Uvarint(hdr[4:])
	if n <= 0 || metaLen != encMetaPad {
		return meta, 0, false, fmt.Errorf("%w: bad meta slot", errNotFixedHeader)
	}
	metaStart := 4 + n
	if err := json.Unmarshal(bytes.TrimRight(hdr[metaStart:metaStart+encMetaPad], " "), &meta); err != nil {
		return meta, 0, false, fmt.Errorf("trace: bad meta: %w", err)
	}
	count, cn := binary.Uvarint(hdr[metaStart+encMetaPad : fixedHeaderLen])
	if cn <= 0 {
		return meta, 0, false, nil
	}
	if count > maxEventCount {
		return meta, 0, false, fmt.Errorf("%w: %d events", ErrCountTooLarge, count)
	}
	return meta, count, true, nil
}

// Write appends one event. Events must arrive in non-decreasing day
// order, exactly as a replay or generator emits them. The first event of
// every new day is recorded in the day index that Close appends. A
// rejected event leaves the encoder as it was.
func (e *Encoder) Write(ev Event) error {
	if e.closed {
		return errors.New("trace: encoder is closed")
	}
	scratch, err := appendEvent(e.scratch[:0], ev, e.prevDay)
	if err != nil {
		return fmt.Errorf("trace: event %d: %w", e.count, err)
	}
	e.scratch = scratch
	if e.count == 0 || ev.Day > e.prevDay {
		// Day boundary: a segmented file's preferred frame cut point (a
		// flat encoder never holds segTargetRaw pending bytes), and a
		// day-index entry either way.
		if len(e.raw) >= segTargetRaw {
			if err := e.drain(); err != nil {
				return err
			}
		}
		e.index = append(e.index, DayIndexEntry{
			Day: ev.Day, Offset: e.rawStart + int64(len(e.raw)), Event: e.count, PrevDay: e.prevDay,
		})
	}
	e.raw = append(e.raw, scratch...)
	e.prevDay = ev.Day
	e.meta.Accumulate(ev)
	e.count++
	if len(e.raw) >= e.maxRaw {
		return e.drain()
	}
	return nil
}

// drain writes the pending raw bytes: a flat file takes them as they
// are, a segmented one as one frame.
func (e *Encoder) drain() error {
	if len(e.raw) == 0 {
		return nil
	}
	if err := e.writeHeader(); err != nil {
		return err
	}
	var err error
	if e.comp != nil {
		err = e.cutFrame()
	} else {
		_, err = e.ws.Write(e.raw)
	}
	if err != nil {
		return err
	}
	e.rawStart += int64(len(e.raw))
	e.raw = e.raw[:0]
	return nil
}

// Meta returns the counters accumulated so far (plus the SetSeed /
// SetMergeDay knowledge); after Close it is exactly what the header holds.
func (e *Encoder) Meta() Meta { return e.meta }

// Events returns how many events have been written (for an OpenAppend
// encoder, including the events the file already held).
func (e *Encoder) Events() uint64 { return e.count }

// Flush writes the pending events down to the underlying writer; a
// segmented encoder seals them into a frame, mid-day if necessary. An
// appender tailing readers follow calls it at day boundaries: once the
// first event of day D+1 is on disk, a TailProbe can prove day D is
// sealed — without flushes, completed days sit invisible in the buffer
// until it fills or Close runs.
func (e *Encoder) Flush() error {
	if e.closed {
		return errors.New("trace: encoder is closed")
	}
	return e.drain()
}

// Close writes the pending events, appends the footer, and back-patches
// the header with the final meta and count. The encoder is unusable
// afterwards; closing the underlying file stays the caller's job.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.drain(); err != nil {
		return err
	}
	if err := e.writeHeader(); err != nil {
		return err
	}
	var footer []byte
	if e.comp != nil {
		footer = appendSegFooter(nil, e.segs, e.index)
	} else {
		footer = appendDayIndex(nil, e.index)
	}
	if _, err := e.ws.Write(appendTrailer(footer)); err != nil {
		return err
	}
	if _, err := e.ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr, err := renderFixedHeader(e.magic, e.meta, e.count, false)
	if err != nil {
		return err
	}
	if _, err := e.ws.Write(hdr); err != nil {
		return err
	}
	// Leave the writer positioned at the end, where appends would go.
	_, err = e.ws.Seek(0, io.SeekEnd)
	return err
}
