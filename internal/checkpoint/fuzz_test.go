package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"repro/internal/trace"
)

// FuzzCheckpointDecode hardens the one checkpoint reader the way
// FuzzDecode hardens the trace codec: Chain.Apply must never panic, hang,
// or over-allocate on corrupt input — truncations, version skew, lying
// lengths — and whatever it accepts must re-encode and apply again to the
// same state (the codec is deterministic). Every input is tried both ways
// a link is read: as a full checkpoint on an empty chain, and as a patch
// on top of a fixed base. The seed corpus covers a real full checkpoint,
// a real patch against the base, one whose stage section is a stage
// patch, version skew, truncation inside every layer, and headers that
// declare absurd lengths.
func FuzzCheckpointDecode(f *testing.F) {
	st := trace.NewState(4, 4)
	apply := func(evs ...trace.Event) {
		for _, ev := range evs {
			if err := st.Apply(ev); err != nil {
				f.Fatal(err)
			}
		}
	}
	apply(
		trace.Event{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		trace.Event{Kind: trace.AddNode, Day: 1, U: 1, Origin: trace.OriginFiveQ},
		trace.Event{Kind: trace.AddEdge, Day: 1, U: 0, V: 1},
	)
	stages := []string{"metrics", "evolution"}
	baseBlobs := [][]byte{{1, 1, 2, 3, 5}, {}}
	var valid bytes.Buffer
	if err := Write(&valid, Header{Day: 1, ParentDay: -1, ConfigHash: 7, Stages: stages}, st, baseBlobs, nil, nil, nil); err != nil {
		f.Fatal(err)
	}
	base := append([]byte(nil), valid.Bytes()...)
	baseDeg := Degrees(st)
	apply(
		trace.Event{Kind: trace.AddNode, Day: 2, U: 2, Origin: trace.OriginNew},
		trace.Event{Kind: trace.AddEdge, Day: 2, U: 2, V: 0},
		trace.Event{Kind: trace.AddEdge, Day: 2, U: 1, V: 2},
	)
	var delta bytes.Buffer
	if err := Write(&delta, Header{Day: 2, ParentDay: 1, ParentSum: 9, ConfigHash: 7, Stages: stages}, st,
		[][]byte{{8, 13}, {}}, nil, baseDeg, BlobSums(baseBlobs)); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	// Truncations inside the header, the state section, and the blobs.
	for _, cut := range []int{3, 5, 9, valid.Len() / 2, valid.Len() - 3} {
		f.Add(append([]byte{}, valid.Bytes()[:cut]...))
	}
	// Version skew.
	skew := append([]byte{}, valid.Bytes()...)
	skew[4] = 0x63
	f.Add(skew)
	// Length overflow: a header that promises 2^40 stages.
	overflow := append([]byte{}, fileMagic[:]...)
	overflow = append(overflow, FormatVersion)
	overflow = append(overflow, 0) // config hash
	overflow = append(overflow, 2) // day (zigzag 1)
	overflow = append(overflow, 1) // parent day (zigzag -1)
	overflow = append(overflow, 0) // parent sum
	overflow = binary.AppendUvarint(overflow, 1<<40)
	f.Add(overflow)
	// A state section whose new-node count lies.
	lies := append([]byte{}, fileMagic[:]...)
	lies = append(lies, FormatVersion, 0, 0, 1, 0, 0) // version, hash, day 0, parent day -1, sum, 0 stages
	lies = append(lies, 0)                            // parent nodes
	lies = binary.AppendUvarint(lies, 1<<50)
	f.Add(lies)
	// A real patch, whole and cut inside its grown rows.
	f.Add(delta.Bytes())
	f.Add(append([]byte{}, delta.Bytes()[:delta.Len()/2]...))
	// A patch link whose evolution section is a stage patch.
	var patched bytes.Buffer
	if err := Write(&patched, Header{Day: 2, ParentDay: 1, ParentSum: 9, ConfigHash: 7, Stages: stages}, st,
		[][]byte{{8, 13}, {21}}, []bool{false, true}, baseDeg, BlobSums(baseBlobs)); err != nil {
		f.Fatal(err)
	}
	f.Add(patched.Bytes())

	empty := func() *Chain { return new(Chain) }
	onBase := func() *Chain {
		c := new(Chain)
		if err := c.Apply(base); err != nil {
			f.Fatal(err)
		}
		return c
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, on := range []func() *Chain{empty, onBase} {
			c := on()
			if c.Apply(data) != nil {
				continue // rejected input is fine; panics, hangs, and OOMs are not
			}
			// Accepted input must survive a deterministic re-encode/apply.
			var parentDeg []int32
			var parentSums []uint64
			blobs := c.Blobs
			var patch []bool
			if !c.Header.Full() {
				parentDeg, parentSums = baseDeg, BlobSums(baseBlobs)
				blobs, patch = slices.Clone(c.Blobs), make([]bool, len(c.Blobs))
				for i, p := range c.Patches {
					if len(p) > 0 {
						blobs[i], patch[i] = p[len(p)-1], true
					}
				}
			}
			var buf bytes.Buffer
			if err := Write(&buf, c.Header, c.State, blobs, patch, parentDeg, parentSums); err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			again := on()
			if err := again.Apply(buf.Bytes()); err != nil {
				t.Fatalf("re-encoded checkpoint does not apply: %v", err)
			}
			if again.Header.Day != c.Header.Day || again.Header.ConfigHash != c.Header.ConfigHash ||
				len(again.Blobs) != len(c.Blobs) || !reflect.DeepEqual(again.Patches, c.Patches) {
				t.Fatalf("round trip diverged: %+v vs %+v", again.Header, c.Header)
			}
			if again.State.Day != c.State.Day || again.State.Graph.NumNodes() != c.State.Graph.NumNodes() ||
				again.State.Graph.NumEdges() != c.State.Graph.NumEdges() {
				t.Fatal("state round trip diverged")
			}
		}
	})
}
