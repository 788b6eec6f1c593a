package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
)

// TestPrimitivesRoundTrip exercises every primitive through one buffer.
func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(-1)
	e.I64(math.MaxInt64)
	e.I32(-42)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Pi)
	e.F64(math.NaN())
	e.F64(math.Inf(-1))
	e.String("état")
	e.Bytes([]byte{0, 1, 2})
	e.Bytes(nil)
	e.I32s([]int32{-1, 0, 1 << 30})
	e.I64s([]int64{math.MinInt64, 7})
	e.F64s([]float64{0.5, -0.25})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(buf.Bytes())
	if got := d.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.U64(); got != math.MaxUint64 {
		t.Errorf("U64 max = %d", got)
	}
	if got := d.I64(); got != -1 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.I64(); got != math.MaxInt64 {
		t.Errorf("I64 max = %d", got)
	}
	if got := d.I32(); got != -42 {
		t.Errorf("I32 = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -Inf = %v", got)
	}
	if got := d.String(); got != "état" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); got != nil {
		t.Errorf("nil Bytes = %v", got)
	}
	if got := d.I32s(); len(got) != 3 || got[2] != 1<<30 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.I64s(); len(got) != 2 || got[0] != math.MinInt64 {
		t.Errorf("I64s = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[1] != -0.25 {
		t.Errorf("F64s = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// testState builds a small replayed state with nontrivial adjacency order.
func testState(t *testing.T) *trace.State {
	t.Helper()
	st := trace.NewState(8, 16)
	events := []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginFiveQ},
		{Kind: trace.AddEdge, Day: 0, U: 0, V: 1},
		{Kind: trace.AddNode, Day: 2, U: 2, Origin: trace.OriginNew},
		{Kind: trace.AddEdge, Day: 2, U: 2, V: 0},
		{Kind: trace.AddEdge, Day: 3, U: 1, V: 2},
	}
	for _, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func sameState(t *testing.T, got, want *trace.State) {
	t.Helper()
	if got.Day != want.Day {
		t.Errorf("day %d vs %d", got.Day, want.Day)
	}
	if got.Graph.NumNodes() != want.Graph.NumNodes() || got.Graph.NumEdges() != want.Graph.NumEdges() {
		t.Fatalf("graph size %d/%d vs %d/%d",
			got.Graph.NumNodes(), got.Graph.NumEdges(), want.Graph.NumNodes(), want.Graph.NumEdges())
	}
	for u := 0; u < want.Graph.NumNodes(); u++ {
		g := got.Graph.AppendNeighbors(nil, graph.NodeID(u))
		w := want.Graph.AppendNeighbors(nil, graph.NodeID(u))
		if len(g) != len(w) {
			t.Fatalf("node %d degree %d vs %d", u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("node %d neighbor %d: %d vs %d (adjacency order must survive)", u, i, g[i], w[i])
			}
		}
	}
	for i := range want.JoinDay {
		if got.JoinDay[i] != want.JoinDay[i] || got.Origin[i] != want.Origin[i] {
			t.Fatalf("node %d columns diverged", i)
		}
	}
}

// TestFileRoundTrip covers a full checkpoint: header, state, blobs, end
// magic, decoded by applying it to an empty chain.
func TestFileRoundTrip(t *testing.T) {
	st := testState(t)
	h := Header{Day: 3, ParentDay: -1, ConfigHash: 0xDEADBEEF, Stages: []string{"metrics", "sweep"}}
	blobs := [][]byte{{1, 2, 3}, nil}
	var buf bytes.Buffer
	if err := Write(&buf, h, st, blobs, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	hdr, err := ReadHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Day != 3 || !hdr.Full() || hdr.ConfigHash != 0xDEADBEEF || len(hdr.Stages) != 2 || hdr.Stages[1] != "sweep" {
		t.Fatalf("header = %+v", hdr)
	}

	var c Chain
	if err := c.Apply(raw); err != nil {
		t.Fatal(err)
	}
	sameState(t, c.State, st)
	if len(c.Blobs) != 2 || !bytes.Equal(c.Blobs[0], []byte{1, 2, 3}) || c.Blobs[1] != nil {
		t.Fatalf("blobs = %v", c.Blobs)
	}

	// Determinism: a second Write of the same inputs is bit-identical.
	var buf2 bytes.Buffer
	if err := Write(&buf2, h, st, blobs, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("checkpoint encoding is not deterministic")
	}

	// Truncation at every prefix must fail typed, not panic or succeed.
	for cut := 0; cut < len(raw); cut++ {
		var c Chain
		if err := c.Apply(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d read cleanly", cut)
		}
	}
}

// TestTypedErrors pins the typed failure modes resume's fallback keys on.
func TestTypedErrors(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Write(&buf, Header{Day: 1, ParentDay: -1}, st, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := ReadHeader([]byte("not a checkpoint")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	skew := append([]byte{}, raw...)
	skew[4] = 0x7f // format version 127
	if _, err := ReadHeader(skew); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: %v", err)
	}
	var c Chain
	if err := c.Apply(raw[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncation: %v", err)
	}
}
