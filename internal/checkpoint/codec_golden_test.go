package checkpoint_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/gen"
)

// primitivesGolden is the exact byte rendering of the primitive sequence
// in TestEncoderGoldenBytes. Checkpoints are compared byte for byte across
// builds (resume, delta blob unchanged-detection, the object hash a delta
// chains to), so any change to this string is a format change.
const primitivesGolden = "" +
	"00017f8001ffffffffffffffffff01" + // U64: 0, 1, 127, 128, MaxUint64
	"000102feffffffffffffffff01ffffffffffffffffff01" + // I64: 0, -1, 1, MaxInt64, MinInt64
	"ffffffff0ffeffffff0f" + // I32: MinInt32, MaxInt32
	"09a09c01" + // Int: -5, 10000
	"0100" + // Bool: true, false
	"010000000000f87f0000000000000080000000000000f07f182d4454fb210940" + // F64: NaN bits, -0, +Inf, Pi
	"000003000102" + // Bytes: nil, empty, {0,1,2}
	"05c3a974617400" + // String: "état", ""
	"00000301008080808008" + // I32s: nil, empty, {-1, 0, 1<<30}
	"02ffffffffffffffffff01fe01" + // I64s: {MinInt64, 127}
	"0002000000000000e03f000000000000d0bf" // F64s: empty, {0.5, -0.25}

// TestEncoderGoldenBytes pins the encoder's output for every primitive,
// including the values whose encodings are easiest to get wrong: zigzag
// extremes, NaN payload bits, negative zero, and nil versus empty slices
// (both encode as a zero length).
func TestEncoderGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	e := checkpoint.NewEncoder(&buf)
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		e.U64(v)
	}
	for _, v := range []int64{0, -1, 1, math.MaxInt64, math.MinInt64} {
		e.I64(v)
	}
	e.I32(math.MinInt32)
	e.I32(math.MaxInt32)
	e.Int(-5)
	e.Int(10000)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Float64frombits(0x7ff8000000000001))
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.F64(math.Pi)
	e.Bytes(nil)
	e.Bytes([]byte{})
	e.Bytes([]byte{0, 1, 2})
	e.String("état")
	e.String("")
	e.I32s(nil)
	e.I32s([]int32{})
	e.I32s([]int32{-1, 0, 1 << 30})
	e.I64s([]int64{math.MinInt64, 127})
	e.F64s([]float64{})
	e.F64s([]float64{0.5, -0.25})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != primitivesGolden {
		t.Fatalf("encoder output changed:\n got %s\nwant %s", got, primitivesGolden)
	}
}

// realCheckpoints runs a checkpointed plan over a short small-preset
// trace at a tiered cadence and returns the bytes of one full checkpoint
// and one delta it wrote.
func realCheckpoints(t *testing.T) (full, delta []byte) {
	t.Helper()
	gcfg := gen.SmallConfig()
	gcfg.Days = 40
	gcfg.Merge = nil // the preset's merge day lies past this horizon
	tr, err := gen.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 15
	cfg.CheckpointFullEvery = 2
	if _, err := core.RunFigures(nil, tr.Source(), cfg, "fig1a", "fig2a", "fig3c"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(ent.Name(), ".ckpt") && full == nil:
			full = b
		case strings.HasSuffix(ent.Name(), ".dckpt") && delta == nil:
			delta = b
		}
	}
	if full == nil || delta == nil {
		t.Fatalf("run wrote no full/delta pair in %v", ents)
	}
	return full, delta
}

// TestTruncationIsTyped cuts a real full checkpoint and a real delta at
// every offset: each strict prefix must be rejected with ErrTruncated —
// never a panic, never another error class, never a silent success —
// and the whole object must decode.
func TestTruncationIsTyped(t *testing.T) {
	full, delta := realCheckpoints(t)
	for _, c := range []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"full", full, func(b []byte) error { _, err := checkpoint.Read(bytes.NewReader(b)); return err }},
		{"delta", delta, func(b []byte) error { _, err := checkpoint.ReadDelta(bytes.NewReader(b)); return err }},
	} {
		if err := c.read(c.data); err != nil {
			t.Fatalf("%s: whole object: %v", c.name, err)
		}
		for cut := 0; cut < len(c.data); cut++ {
			err := c.read(c.data[:cut])
			if !errors.Is(err, checkpoint.ErrTruncated) {
				t.Fatalf("%s cut at %d of %d: err = %v, want ErrTruncated", c.name, cut, len(c.data), err)
			}
		}
	}
}
