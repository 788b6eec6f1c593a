// Package checkpoint implements the versioned, deterministic binary codec
// behind the pipeline's day-addressable state plane (DESIGN.md §6): the
// low-level Encoder/Decoder primitives every streaming stage serializes
// its accumulator state with, and the one checkpoint container: a patch
// of the shared trace.State against the parent checkpoint, plus one
// opaque blob per stage that changed (a full checkpoint is the patch
// against the empty state).
//
// Determinism is a correctness requirement, not a nicety: a run resumed
// from a checkpoint must be bit-identical to the from-zero run, so
// serialization never iterates a map directly — callers emit map entries
// in sorted key order (SortedKeys) — and floating-point values round-trip
// through their exact IEEE-754 bits.
//
// Decoding is hardened the same way the trace codec is: typed errors for
// bad magic, version skew, and truncation; declared lengths are bounded
// before any allocation, and slice preallocation is capped so a lying
// header grows by append instead of one huge up-front allocation.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Typed decode errors, mirrored on the trace codec's hardening.
var (
	// ErrBadMagic is returned when a stream is not a checkpoint file.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrVersion is returned for a container format version this build
	// does not understand.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated is returned when the stream ends inside a promised
	// structure.
	ErrTruncated = errors.New("checkpoint: truncated stream")
	// ErrTooLarge is returned when a declared length exceeds its bound.
	ErrTooLarge = errors.New("checkpoint: declared length exceeds limit")
	// ErrCorrupt is returned for structurally invalid content (value out
	// of range, malformed varint, bad section framing).
	ErrCorrupt = errors.New("checkpoint: corrupt stream")
)

// Decode bounds.
const (
	// maxLen bounds every declared string/slice/blob length.
	maxLen = 1 << 31
	// prealloc caps how much capacity a decoder trusts a declared length
	// for.
	prealloc = 1 << 16
	// maxSections bounds the number of per-stage sections in a container.
	maxSections = 1 << 10
)

// Encoder writes the checkpoint primitive types to an underlying writer.
// Primitives are appended to an in-memory buffer (varints through
// binary.AppendUvarint/AppendVarint) that is written out on Flush, or
// whenever it outgrows encoderSpill, so a whole-state encoding never holds
// a second full copy of its output. Errors are sticky: the first failure
// is kept and every later call is a no-op, so call sites stay linear and
// check Err (or Flush) once.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// encoderSpill is the buffered size at which an Encoder writes its
// buffer out instead of growing it further.
const encoderSpill = 64 << 10

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Err returns the first write failure, nil if none.
func (e *Encoder) Err() error { return e.err }

// Flush writes buffered output and returns the first failure.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// spill writes the buffer out once it has outgrown encoderSpill.
func (e *Encoder) spill() {
	if len(e.buf) >= encoderSpill {
		e.Flush()
	}
}

func (e *Encoder) write(p []byte) {
	e.buf = append(e.buf, p...)
	e.spill()
}

// U64 writes an unsigned varint.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
	e.spill()
}

// I64 writes a signed (zigzag) varint.
func (e *Encoder) I64(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
	e.spill()
}

// I32 writes a signed varint constrained to the int32 range on decode.
func (e *Encoder) I32(v int32) { e.I64(int64(v)) }

// Int writes a signed varint constrained to the int range on decode.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool writes a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
	e.spill()
}

// F64 writes the value's exact IEEE-754 bits (8 bytes, little endian).
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	e.spill()
}

// Bytes writes a length-prefixed byte blob.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.write(b)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
	e.spill()
}

// I32s writes a length-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.I32(x)
	}
}

// I64s writes a length-prefixed []int64.
func (e *Encoder) I64s(v []int64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.I64(x)
	}
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Decoder reads the checkpoint primitive types from a byte slice. Like
// the Encoder, its error is sticky; reads after a failure return zero
// values. Decoded slices and strings never alias the input.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) *Decoder {
	return &Decoder{buf: b}
}

// Err returns the first decode failure, nil if none.
func (d *Decoder) Err() error { return d.err }

// errShort is the failure of every read past the end of the input.
var errShort = fmt.Errorf("%w: unexpected EOF", ErrTruncated)

// fail latches the first error and returns it.
func (d *Decoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// raw returns the next n bytes of the input (aliasing it), or nil after
// latching a truncation.
func (d *Decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.fail(errShort)
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// expect reads a 4-byte magic and latches mismatch if it differs from
// want.
func (d *Decoder) expect(want [4]byte, mismatch error) error {
	if m := d.raw(4); m != nil && [4]byte(m) != want {
		d.fail(mismatch)
	}
	return d.err
}

// varintErr classifies a failed binary.Uvarint/Varint read: n == 0 is an
// input that ends inside the varint, n < 0 one that overflows 64 bits.
func varintErr(n int) error {
	if n == 0 {
		return errShort
	}
	return fmt.Errorf("%w: varint overflows a 64-bit integer", ErrCorrupt)
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(varintErr(n))
		return 0
	}
	d.off += n
	return v
}

// I32 reads a signed varint, rejecting values outside the int32 range.
func (d *Decoder) I32() int32 {
	v := d.I64()
	if d.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		d.fail(fmt.Errorf("%w: value %d overflows int32", ErrCorrupt, v))
		return 0
	}
	return int32(v)
}

// Int reads a signed varint, rejecting values outside the int range.
func (d *Decoder) Int() int {
	v := d.I64()
	if d.err == nil && (v < math.MinInt || v > math.MaxInt) {
		d.fail(fmt.Errorf("%w: value %d overflows int", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool {
	b := d.raw(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, b[0]))
		return false
	}
	return b[0] == 1
}

// F64 reads 8 little-endian IEEE-754 bits.
func (d *Decoder) F64() float64 {
	b := d.raw(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Len reads a declared length and bounds it.
func (d *Decoder) Len() int {
	n := d.U64()
	if d.err == nil && n > maxLen {
		d.fail(fmt.Errorf("%w: length %d", ErrTooLarge, n))
		return 0
	}
	return int(n)
}

// capLen caps a declared length to the preallocation bound.
func capLen(n int) int {
	if n > prealloc {
		return prealloc
	}
	return n
}

// Bytes reads a length-prefixed byte blob into a fresh slice. The blob
// must lie inside the input, so a lying length allocates nothing.
func (d *Decoder) Bytes() []byte {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.raw(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.raw(n))
}

// I32s reads a length-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, 0, capLen(n))
	for i := 0; i < n; i++ {
		out = append(out, d.I32())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, 0, capLen(n))
	for i := 0; i < n; i++ {
		out = append(out, d.I64())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, capLen(n))
	for i := 0; i < n; i++ {
		out = append(out, d.F64())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// SortedKeys returns m's keys in ascending order — the deterministic map
// iteration every stage codec uses.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
