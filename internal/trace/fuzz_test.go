package trace

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"
)

// FuzzDecode hardens the codec against corrupt and truncated input: Decode
// must never panic or over-allocate, and anything it accepts must survive
// an Encode/Decode round trip unchanged (the decoder only admits
// well-formed streams: known kinds, non-decreasing days, in-range ids).
// The seed corpus is Encode output for representative traces, including
// the incremental Encoder's fixed-width header layout.
func FuzzDecode(f *testing.F) {
	seed := func(tr *Trace) {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Trace{Meta: Meta{MergeDay: -1}})
	seed(&Trace{
		Meta: Meta{Days: 4, MergeDay: 2, Nodes: 3, Edges: 3, Xiaonei: 2, FiveQ: 1, Seed: 7},
		Events: []Event{
			{Kind: AddNode, Day: 0, U: 0, Origin: OriginXiaonei},
			{Kind: AddNode, Day: 0, U: 1, Origin: OriginXiaonei},
			{Kind: AddEdge, Day: 0, U: 0, V: 1},
			{Kind: AddNode, Day: 2, U: 2, Origin: OriginFiveQ},
			{Kind: AddEdge, Day: 2, U: 1, V: 2},
			{Kind: AddEdge, Day: 3, U: 0, V: 2},
		},
	})
	seed(synthTrace(41))
	// The streaming Encoder's padded header is format-equivalent input.
	var ws seekBuffer
	enc, err := NewEncoder(&ws)
	if err != nil {
		f.Fatal(err)
	}
	enc.SetSeed(3)
	for _, ev := range synthTrace(17).Events {
		if err := enc.Write(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{}, ws.buf...))
	// A header that lies about its count must fail, not pre-allocate.
	f.Add(append(append([]byte{}, magic[:]...), 0x02, '{', '}', 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics and hangs are not
		}
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		tr2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if tr2.Meta != tr.Meta {
			t.Fatalf("meta round trip: %+v -> %+v", tr.Meta, tr2.Meta)
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("event count round trip: %d -> %d", len(tr.Events), len(tr2.Events))
		}
		for i := range tr2.Events {
			if tr2.Events[i] != tr.Events[i] {
				t.Fatalf("event %d round trip: %+v -> %+v", i, tr.Events[i], tr2.Events[i])
			}
		}
	})
}

// FuzzTailProbe holds the tail probe to its contract on arbitrary file
// contents: probing never panics, a snapshot with sealed events gives a
// Source that replays exactly those events, each on a sealed day, and a
// second probe of the unchanged file reports the same sealed prefix.
// One load is exempt from the replay check by design: the first probe
// of a finalized file trusts its header and footer without reading the
// event bytes, as OpenTrace does, so corruption inside those bytes
// shows only when the source replays them. Such a replay may fail, but
// one that succeeds still yields exactly the sealed count.
func FuzzTailProbe(f *testing.F) {
	tr := synthTrace(129)
	var ws seekBuffer
	enc, err := NewEncoder(&ws)
	if err != nil {
		f.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	seg := encodeSegBytes(f, tr, true)
	for _, full := range [][]byte{ws.buf, seg} {
		f.Add(full)
		f.Add(full[:len(full)*2/3]) // cut mid-event or mid-frame
	}
	footLen := int(binary.LittleEndian.Uint64(seg[len(seg)-indexTrailerLen:]))
	f.Add(seg[:len(seg)-indexTrailerLen-footLen])

	path := filepath.Join(f.TempDir(), "trace")
	f.Fuzz(func(t *testing.T, data []byte) {
		writeFile(t, path, data)
		p := NewTailProbe(path)
		snap, err := p.Probe()
		if err != nil {
			return // not probeable yet: the caller backs off
		}
		trusted := !p.sealedValid
		again, err := p.Probe()
		if err != nil {
			t.Fatalf("re-probe of the unchanged file: %v", err)
		}
		if again.SealedDay != snap.SealedDay || again.Events != snap.Events {
			t.Fatalf("re-probe sealed day %d with %d events, first probe day %d with %d",
				again.SealedDay, again.Events, snap.SealedDay, snap.Events)
		}
		if snap.Events <= 0 {
			return
		}
		cur, err := snap.Source().Open()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var n int64
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				if trusted {
					return
				}
				t.Fatalf("sealed event %d of %d: %v", n, snap.Events, err)
			}
			if !ok {
				break
			}
			if ev.Day > snap.SealedDay && !trusted {
				t.Fatalf("sealed event %d is on day %d, past sealed day %d", n, ev.Day, snap.SealedDay)
			}
			n++
		}
		if n != snap.Events {
			t.Fatalf("source replayed %d events, snapshot seals %d", n, snap.Events)
		}
	})
}

// seekBuffer is an in-memory io.WriteSeeker for exercising the Encoder
// without a file.
type seekBuffer struct {
	buf []byte
	pos int
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	if need := b.pos + len(p); need > len(b.buf) {
		b.buf = append(b.buf, make([]byte, need-len(b.buf))...)
	}
	copy(b.buf[b.pos:], p)
	b.pos += len(p)
	return len(p), nil
}

func (b *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case 0:
		b.pos = int(offset)
	case 1:
		b.pos += int(offset)
	case 2:
		b.pos = len(b.buf) + int(offset)
	}
	return int64(b.pos), nil
}
