package checkpoint_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// primitivesGolden is the exact byte rendering of the primitive sequence
// in TestEncoderGoldenBytes. Checkpoints are compared byte for byte across
// builds (resume, unchanged-blob detection, the object hash a patch
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

// chainGolden is the exact byte rendering of the two-link chain in
// TestChainGoldenBytes: a full checkpoint, then a patch against it. Any
// change to these strings is a format change.
var chainGolden = [2]string{
	"" +
		"52524331" + "03" + "07" + // magic, version 3, config hash 7
		"02" + "01" + "00" + // day 1, parent day -1 (full), parent sum 0
		"02" + "016d" + "0173" + // stages "m", "s"
		"00" + "03" + "00" + // 0 parent nodes, 3 new, 0 grown
		"020102" + "0100" + "0100" + // rows: 0 → {1, 2}, 1 → {0}, 2 → {0}
		"000002" + "000102" + // join days 0, 0, 1; origins Xiaonei, 5Q, new
		"02" + // state day 1
		"01020102" + "0100" + // m: changed, {1, 2}; s: changed, empty
		"52524345", // end magic
	"" +
		"52524331" + "03" + "07" + // magic, version 3, config hash 7
		"06" + "02" + "2a" + // day 3, parent day 1, parent sum 42
		"02" + "016d" + "0173" + // stages "m", "s"
		"03" + "01" + "02" + // 3 parent nodes, 1 new, 2 grown
		"01020203" + "020101" + // suffixes: 1 += {2, 3}, 2 += {1}
		"0101" + // new row: 3 → {1}
		"06" + "00" + // join day 3; origin Xiaonei
		"06" + // state day 3
		"010103" + "00" + // m: changed, {3}; s: unchanged
		"52524345", // end magic
}

// TestChainGoldenBytes pins the container layout byte for byte on a
// hand-built two-link chain, and that the chain decodes back to the
// replayed state.
func TestChainGoldenBytes(t *testing.T) {
	st := trace.NewState(4, 4)
	apply := func(evs ...trace.Event) {
		for _, ev := range evs {
			if err := st.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(
		trace.Event{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		trace.Event{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginFiveQ},
		trace.Event{Kind: trace.AddEdge, Day: 0, U: 0, V: 1},
		trace.Event{Kind: trace.AddNode, Day: 1, U: 2, Origin: trace.OriginNew},
		trace.Event{Kind: trace.AddEdge, Day: 1, U: 2, V: 0},
	)
	stages := []string{"m", "s"}
	blobs0 := [][]byte{{1, 2}, {}}
	var full bytes.Buffer
	if err := checkpoint.Write(&full, checkpoint.Header{Day: 1, ParentDay: -1, ConfigHash: 7, Stages: stages}, st, blobs0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	deg := checkpoint.Degrees(st)
	apply(
		trace.Event{Kind: trace.AddEdge, Day: 2, U: 1, V: 2},
		trace.Event{Kind: trace.AddNode, Day: 3, U: 3, Origin: trace.OriginXiaonei},
		trace.Event{Kind: trace.AddEdge, Day: 3, U: 3, V: 1},
	)
	blobs1 := [][]byte{{3}, {}}
	var delta bytes.Buffer
	if err := checkpoint.Write(&delta, checkpoint.Header{Day: 3, ParentDay: 1, ParentSum: 42, ConfigHash: 7, Stages: stages}, st, blobs1, nil, deg, checkpoint.BlobSums(blobs0)); err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]byte{full.Bytes(), delta.Bytes()} {
		if got := hex.EncodeToString(b); got != chainGolden[i] {
			t.Fatalf("link %d output changed:\n got %s\nwant %s", i, got, chainGolden[i])
		}
	}

	var c checkpoint.Chain
	for i, b := range [][]byte{full.Bytes(), delta.Bytes()} {
		if err := c.Apply(b); err != nil {
			t.Fatalf("link %d: %v", i, err)
		}
	}
	if c.State.Graph.NumNodes() != 4 || c.State.Graph.NumEdges() != 4 || c.State.Day != 3 || c.Header.Day != 3 {
		t.Fatalf("chain decoded to %d nodes, %d edges, day %d", c.State.Graph.NumNodes(), c.State.Graph.NumEdges(), c.State.Day)
	}
	if got := c.State.Graph.AppendNeighbors(nil, 1); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("node 1 row = %v, want [0 2 3]", got)
	}
	if !bytes.Equal(c.Blobs[0], []byte{3}) || len(c.Blobs[1]) != 0 {
		t.Fatalf("blobs = %v", c.Blobs)
	}
}

// realCheckpoints runs a checkpointed plan over a short small-preset
// trace at a tiered cadence and returns the bytes of one patch it wrote
// and of the full checkpoint that patch is written against.
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
	byDay := map[int32][]byte{}
	var parentDay int32 = -1
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h, err := checkpoint.ReadHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		byDay[h.Day] = b
		if !h.Full() && delta == nil {
			delta, parentDay = b, h.ParentDay
		}
	}
	if full = byDay[parentDay]; full == nil || delta == nil {
		t.Fatalf("run wrote no full/patch pair in %v", ents)
	}
	return full, delta
}

// TestTruncationIsTyped cuts a real full checkpoint and a real patch
// against it at every offset and applies each prefix through the one
// decoder, Chain.Apply — the full to an empty chain, the patch on top of
// its parent. Each strict prefix must be rejected with ErrTruncated —
// never a panic, never another error class, never a silent success —
// and each whole object must apply.
func TestTruncationIsTyped(t *testing.T) {
	full, delta := realCheckpoints(t)
	// base returns a chain holding the parent state. A failed Apply
	// leaves its chain half-patched, so every cut of the patch gets a
	// fresh one.
	base := func() *checkpoint.Chain {
		var c checkpoint.Chain
		if err := c.Apply(full); err != nil {
			t.Fatalf("full: whole object: %v", err)
		}
		return &c
	}
	if err := base().Apply(delta); err != nil {
		t.Fatalf("delta: whole object: %v", err)
	}
	for _, c := range []struct {
		name string
		data []byte
		on   func() *checkpoint.Chain
	}{
		{"full", full, func() *checkpoint.Chain { return new(checkpoint.Chain) }},
		{"delta", delta, base},
	} {
		for cut := 0; cut < len(c.data); cut++ {
			err := c.on().Apply(c.data[:cut])
			if !errors.Is(err, checkpoint.ErrTruncated) {
				t.Fatalf("%s cut at %d of %d: err = %v, want ErrTruncated", c.name, cut, len(c.data), err)
			}
		}
	}
}
