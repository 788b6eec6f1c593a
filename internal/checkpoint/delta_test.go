package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/trace"
)

// deltaEvents is a replay long enough to produce grown old nodes, new
// nodes, and multi-day structure across three cut points.
func deltaEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginFiveQ},
		{Kind: trace.AddEdge, Day: 0, U: 0, V: 1},
		{Kind: trace.AddNode, Day: 1, U: 2, Origin: trace.OriginNew},
		{Kind: trace.AddEdge, Day: 1, U: 2, V: 0},
		// cut 1: 3 nodes, 2 edges, day 1
		{Kind: trace.AddEdge, Day: 2, U: 1, V: 2},
		{Kind: trace.AddNode, Day: 3, U: 3, Origin: trace.OriginXiaonei},
		{Kind: trace.AddEdge, Day: 3, U: 3, V: 1},
		// cut 2: 4 nodes, 4 edges, day 3
		{Kind: trace.AddNode, Day: 4, U: 4, Origin: trace.OriginFiveQ},
		{Kind: trace.AddEdge, Day: 4, U: 4, V: 3},
		{Kind: trace.AddEdge, Day: 5, U: 4, V: 0},
		// cut 3: 5 nodes, 6 edges, day 5
	}
}

func replayed(t *testing.T, events []trace.Event) *trace.State {
	t.Helper()
	st := trace.NewState(8, 16)
	for _, ev := range events {
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// link renders st at day as a checkpoint of stages "a" and "b": a full
// one when parent is nil, else a patch against parent, the state the
// checkpoint at parentDay holds with stage blobs parentBlobs.
func link(t *testing.T, day int32, st *trace.State, blobs [][]byte, parentDay int32, parent *trace.State, parentBlobs [][]byte) []byte {
	t.Helper()
	h := Header{Day: day, ParentDay: parentDay, Stages: []string{"a", "b"}}
	var deg []int32
	if parent != nil {
		deg = Degrees(parent)
	}
	var buf bytes.Buffer
	if err := Write(&buf, h, st, blobs, nil, deg, BlobSums(parentBlobs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyAll applies links, oldest first, to a fresh chain.
func applyAll(t *testing.T, links ...[]byte) *Chain {
	t.Helper()
	var c Chain
	for i, l := range links {
		if err := c.Apply(l); err != nil {
			t.Fatalf("link %d: %v", i, err)
		}
	}
	return &c
}

// threeLinks is a full checkpoint at day 1 and two patches on top of it
// (days 3 and 5), each changing one of the two stage blobs.
func threeLinks(t *testing.T) (links [][]byte, tip *trace.State, tipBlobs [][]byte) {
	t.Helper()
	events := deltaEvents()
	base := replayed(t, events[:5])
	mid := replayed(t, events[:8])
	tip = replayed(t, events)
	b0 := [][]byte{[]byte("blob-a"), []byte("blob-b")}
	b1 := [][]byte{[]byte("blob-a1"), []byte("blob-b")}
	b2 := [][]byte{[]byte("blob-a1"), []byte("blob-b2")}
	return [][]byte{
		link(t, 1, base, b0, -1, nil, nil),
		link(t, 3, mid, b1, 1, base, b0),
		link(t, 5, tip, b2, 3, mid, b1),
	}, tip, b2
}

// TestDeltaDiffApplyChain is the delta plane's correctness core: a full
// checkpoint and two patches written from the live states at three cut
// points, applied oldest first, must give a state element-identical to
// the directly replayed one, adjacency order included, and the newest
// blob of every stage.
func TestDeltaDiffApplyChain(t *testing.T) {
	links, tip, tipBlobs := threeLinks(t)
	h, err := ReadHeader(links[1])
	if err != nil {
		t.Fatal(err)
	}
	if h.Full() || h.Day != 3 || h.ParentDay != 1 || len(h.Stages) != 2 || h.Stages[1] != "b" {
		t.Fatalf("patch header = %+v", h)
	}
	// An unchanged blob is not carried.
	if bytes.Contains(links[1], []byte("blob-b")) || bytes.Contains(links[2], []byte("blob-a1")) {
		t.Fatal("a patch carries a blob its parent already holds")
	}

	c := applyAll(t, links...)
	sameState(t, c.State, tip)
	if c.Header.Day != 5 || c.State.Day != 5 {
		t.Fatalf("chain at day %d, state day %d; want 5", c.Header.Day, c.State.Day)
	}
	for i := range tipBlobs {
		if !bytes.Equal(c.Blobs[i], tipBlobs[i]) {
			t.Fatalf("blob %d = %q, want %q", i, c.Blobs[i], tipBlobs[i])
		}
	}
}

// TestDeltaEmptyPatch: a quiet interval (no new nodes or edges, day
// advanced, no blob changed) still round-trips.
func TestDeltaEmptyPatch(t *testing.T) {
	st := replayed(t, deltaEvents()[:5])
	blobs := [][]byte{[]byte("x"), nil}
	full := link(t, 1, st, blobs, -1, nil, nil)
	quiet := link(t, 2, st, blobs, 1, st, blobs)
	c := applyAll(t, full, quiet)
	sameState(t, c.State, st)
	if c.Header.Day != 2 || string(c.Blobs[0]) != "x" || c.Blobs[1] != nil {
		t.Fatalf("chain header %+v, blobs %q", c.Header, c.Blobs)
	}
}

// TestWriteRejectsNonExtension: a state that does not extend the parent
// must fail loudly, before any output, not produce a garbage patch.
func TestWriteRejectsNonExtension(t *testing.T) {
	events := deltaEvents()
	small := replayed(t, events[:5])
	big := replayed(t, events)
	blobs := [][]byte{nil, nil}
	h := Header{Day: 5, ParentDay: 1, Stages: []string{"a", "b"}}
	var buf bytes.Buffer
	if err := Write(&buf, h, small, blobs, nil, Degrees(big), BlobSums(blobs)); err == nil {
		t.Fatal("shrinking patch accepted")
	}
	deg := Degrees(small)
	deg[0] += 5 // parent claims more neighbors than the child has
	if err := Write(&buf, h, small, blobs, nil, deg, BlobSums(blobs)); err == nil {
		t.Fatal("degree-shrink patch accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected patches wrote %d bytes", buf.Len())
	}
	full := h
	full.ParentDay = -1
	if err := Write(&buf, full, small, blobs, nil, deg, nil); err == nil {
		t.Fatal("full checkpoint with a parent degree vector accepted")
	}
}

// TestApplyRejectsMismatchedChain: a link applied out of chain order
// fails.
func TestApplyRejectsMismatchedChain(t *testing.T) {
	links, tip, tipBlobs := threeLinks(t)
	var c Chain
	if err := c.Apply(links[1]); err == nil {
		t.Fatal("a chain starting with a patch accepted")
	}
	c2 := applyAll(t, links[0])
	if err := c2.Apply(links[2]); err == nil {
		t.Fatal("a patch against day 3 applied on day 1")
	}
	// Right parent day, wrong parent state: node counts differ.
	wrong := applyAll(t, link(t, 3, tip, tipBlobs, -1, nil, nil))
	if err := wrong.Apply(links[2]); err == nil {
		t.Fatal("mismatched patch accepted")
	}
}

// TestDeltaDecodeHardening: magic confusion and corruption surface as
// the package's typed errors, never panics.
func TestDeltaDecodeHardening(t *testing.T) {
	links, _, _ := threeLinks(t)
	good := links[1]

	// A patch whose magic is damaged is not a checkpoint.
	magic := append([]byte(nil), good...)
	magic[2] ^= 0xff
	if err := applyAll(t, links[0]).Apply(magic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Truncations at every prefix length fail typed, never panic.
	for n := 0; n < len(good); n++ {
		c := applyAll(t, links[0])
		if err := c.Apply(good[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d: %v", n, err)
		}
	}
	// A flipped end magic is corruption.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := applyAll(t, links[0]).Apply(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad end magic: %v", err)
	}
}
