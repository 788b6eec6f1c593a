package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// File format:
//
//	magic "RRT1" (4 bytes)
//	uvarint meta length, JSON-encoded Meta
//	uvarint event count
//	per event: kind (1 byte), uvarint day delta from previous event,
//	           then AddNode: uvarint node id, origin (1 byte)
//	                AddEdge: uvarint u, uvarint v
//
// Day deltas and dense ids keep typical traces around 5–8 bytes/event.
//
// The streaming Encoder emits the same format with a fixed-width header
// (space-padded meta slot, padded-uvarint count) so Close can back-patch
// the final counters in place; Decoder and Decode read both layouts
// transparently.

var magic = [4]byte{'R', 'R', 'T', '1'}

// Decode hardening bounds and typed errors. The bounds reject
// resource-exhaustion headers before any allocation; the overflow errors
// reject events whose uvarint fields cannot fit the int32 id/day space.
const (
	// maxMetaLen bounds the header's JSON meta blob.
	maxMetaLen = 1 << 20
	// maxEventCount bounds the declared event count (~8.6G events).
	maxEventCount = 1 << 33
	// decodePrealloc caps how much capacity Decode trusts the header's
	// count for; a larger (possibly lying) count grows by append instead
	// of one huge up-front allocation.
	decodePrealloc = 1 << 20
	// encMetaPad is the fixed, space-padded meta slot the streaming
	// Encoder reserves so Close can rewrite the header in place.
	encMetaPad = 256
	// encCountPad is the fixed width of the Encoder's padded-uvarint
	// event count.
	encCountPad = binary.MaxVarintLen64
)

var (
	// ErrBadMagic is returned when decoding a stream that is not a trace
	// file.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrMetaTooLarge is returned when the header declares a meta blob
	// beyond maxMetaLen.
	ErrMetaTooLarge = errors.New("trace: meta length exceeds limit")
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

// Encode writes tr to w in the binary trace format.
func Encode(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	metaJSON, err := json.Marshal(tr.Meta)
	if err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(metaJSON))); err != nil {
		return err
	}
	if _, err := bw.Write(metaJSON); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(tr.Events))); err != nil {
		return err
	}
	prevDay := int32(0)
	var scratch []byte
	for i, ev := range tr.Events {
		scratch, err = appendEvent(scratch[:0], ev, prevDay)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
		prevDay = ev.Day
	}
	return bw.Flush()
}

// Decoder incrementally decodes a trace stream: the header is read at
// construction, events one at a time through Next, so a pass over an
// arbitrarily long trace holds O(1) memory. FileSource builds its cursors
// on it.
type Decoder struct {
	br    *bufio.Reader
	meta  Meta
	count uint64 // events the header promises
	read  uint64 // events decoded so far
	day   int32
	err   error // sticky first failure
}

// NewDecoder reads and validates the stream's header (magic, meta, event
// count) and returns a decoder positioned at the first event.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: meta length: %w", err)
	}
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrMetaTooLarge, metaLen)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return nil, fmt.Errorf("trace: meta: %w", err)
	}
	d := &Decoder{br: br}
	if err := json.Unmarshal(metaJSON, &d.meta); err != nil {
		return nil, fmt.Errorf("trace: bad meta: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: event count: %w", err)
	}
	if count > maxEventCount {
		return nil, fmt.Errorf("%w: %d events", ErrCountTooLarge, count)
	}
	d.count = count
	return d, nil
}

// resumeDecoder returns a decoder positioned mid-stream: br must be
// positioned at the first byte of an event boundary, remaining is the
// number of events from there to the end of the stream, and day the
// day-delta watermark in force at that boundary. Every FileSource cursor
// is one: Open's at the first event, OpenAt's at a day index entry, with
// remaining taken from the count bound fixed at open.
func resumeDecoder(br *bufio.Reader, meta Meta, remaining uint64, day int32) *Decoder {
	return &Decoder{br: br, meta: meta, count: remaining, day: day}
}

// Meta returns the header's metadata.
func (d *Decoder) Meta() Meta { return d.meta }

// Events returns the event count the header declares.
func (d *Decoder) Events() uint64 { return d.count }

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

// Decode reads a full trace in the binary format from r.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	hint := d.count
	if hint > decodePrealloc {
		hint = decodePrealloc
	}
	tr := &Trace{Meta: d.meta, Events: make([]Event, 0, hint)}
	for {
		ev, ok, err := d.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return tr, nil
		}
		tr.Events = append(tr.Events, ev)
	}
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

// Day-index footer layout, appended by the streaming Encoder after the
// event stream and tolerated-if-absent by every decode path (the decoder
// stops after the header's event count, so trailing bytes are invisible
// to it):
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
// end of the file; files written before the index existed (or by the
// one-shot Encode) simply have no trailer and decode as before. The CRC
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

// appendTrailer appends the fixed trailer both streaming encoders end
// their footer with: the footer's length, then the end magic.
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

// Encoder is the incremental trace sink: events are appended one at a
// time (e.g. straight from gen.GenerateStream) and the header — meta
// counters accumulated from the events plus the event count — is
// back-patched on Close. A trace therefore streams to disk without the
// event slice or the encoded bytes ever being resident. The writer must
// be seekable (a file); the output decodes with the same Decoder/Decode
// as Encode's. Close also appends the per-day byte-offset index footer
// that lets FileSource.OpenAt start a cursor mid-trace.
type Encoder struct {
	ws      io.WriteSeeker
	bw      *bufio.Writer
	meta    Meta
	count   uint64
	prevDay int32
	closed  bool

	offset  int64 // absolute byte offset of the next event's encoding
	index   []DayIndexEntry
	scratch []byte
}

// NewEncoder writes a placeholder header to ws and returns a ready sink.
// The placeholder is deliberately invalid (its count slot cannot decode),
// so a file whose writer crashed before Close fails loudly instead of
// passing as an empty trace. MergeDay defaults to -1 (no merge); use
// SetMergeDay/SetSeed to record generator knowledge before Close.
func NewEncoder(ws io.WriteSeeker) (*Encoder, error) {
	e := &Encoder{ws: ws, bw: bufio.NewWriterSize(ws, 1<<16)}
	e.meta.MergeDay = -1
	hdr, err := e.header(false)
	if err != nil {
		return nil, err
	}
	if _, err := e.bw.Write(hdr); err != nil {
		return nil, err
	}
	e.offset = int64(len(hdr))
	return e, nil
}

// SetSeed records the generator seed in the header meta.
func (e *Encoder) SetSeed(seed int64) { e.meta.Seed = seed }

// SetMergeDay records the merge day in the header meta (-1 for none).
func (e *Encoder) SetMergeDay(day int32) { e.meta.MergeDay = day }

// header renders the fixed-width rewritable header. When final is false
// the count slot is filled with continuation bytes that no uvarint reader
// accepts, poisoning the file until Close back-patches the real count.
func (e *Encoder) header(final bool) ([]byte, error) {
	return renderFixedHeader(magic, e.meta, e.count, !final)
}

// renderFixedHeader renders the fixed-width rewritable header layout the
// streaming encoders (flat and segmented) share: magic, a space-padded
// meta slot, and a padded-uvarint count slot. With poison set the count
// slot is filled with continuation bytes no uvarint reader accepts, so a
// file whose writer crashed before Close fails loudly instead of passing
// as an empty trace.
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
// fixed-width layout renderFixedHeader writes (the one-shot Encode
// layout's meta length is the JSON's exact size, not encMetaPad).
var errNotFixedHeader = errors.New("trace: not a fixed-width header")

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
	switch {
	case cn <= 0:
		return meta, 0, false, nil
	case cn != encCountPad:
		// A canonical count: one-shot Encode output whose meta happens
		// to fill the slot.
		return meta, 0, false, fmt.Errorf("%w: count is not padded", errNotFixedHeader)
	}
	if count > maxEventCount {
		return meta, 0, false, fmt.Errorf("%w: %d events", ErrCountTooLarge, count)
	}
	return meta, count, true, nil
}

// Write appends one event. Events must arrive in non-decreasing day
// order, exactly as a replay or generator emits them. The first event of
// every new day is recorded in the day index that Close appends.
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
		e.index = append(e.index, DayIndexEntry{
			Day: ev.Day, Offset: e.offset, Event: e.count, PrevDay: e.prevDay,
		})
	}
	if _, err := e.bw.Write(scratch); err != nil {
		return err
	}
	e.offset += int64(len(scratch))
	e.prevDay = ev.Day
	e.meta.Accumulate(ev)
	e.count++
	return nil
}

// Meta returns the counters accumulated so far (plus the SetSeed /
// SetMergeDay knowledge); after Close it is exactly what the header holds.
func (e *Encoder) Meta() Meta { return e.meta }

// Events returns how many events have been written (for an OpenAppend
// encoder, including the events the file already held).
func (e *Encoder) Events() uint64 { return e.count }

// Flush forces buffered event bytes down to the underlying writer. An
// appender tailing readers follow calls it at day boundaries: once the
// first event of day D+1 is on disk, a TailProbe can prove day D is
// sealed — without flushes, completed days sit invisible in the buffer
// until it fills or Close runs.
func (e *Encoder) Flush() error {
	if e.closed {
		return errors.New("trace: encoder is closed")
	}
	return e.bw.Flush()
}

// Close flushes the event stream, appends the day-index footer, and
// back-patches the header with the final meta and count. The encoder is
// unusable afterwards; closing the underlying file stays the caller's job.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	footer := appendTrailer(appendDayIndex(nil, e.index))
	if _, err := e.bw.Write(footer); err != nil {
		return err
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	if _, err := e.ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hdr, err := e.header(true)
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
