package trace

import (
	"path/filepath"
	"testing"
)

// FuzzDecode hardens the flat container the way FuzzSegDecode hardens
// the segmented one: openContainer over a bytes blob, then a drain of
// its one cursor, must never panic or over-allocate, and anything
// accepted must re-encode through NewEncoder and read back to the same
// events, with the meta the encoder wrote (the decoder only admits
// well-formed streams: known kinds, non-decreasing days, in-range ids).
func FuzzDecode(f *testing.F) {
	full := encodeBytes(f, synthTrace(41))
	f.Add(full)
	f.Add(withoutFooter(full))
	f.Add(encodeBytes(f, &Trace{Meta: Meta{MergeDay: -1}}))
	f.Add(encodeBytes(f, &Trace{
		Meta: Meta{Days: 4, MergeDay: 2, Nodes: 3, Edges: 3, Xiaonei: 2, FiveQ: 1, Seed: 7},
		Events: []Event{
			{Kind: AddNode, Day: 0, U: 0, Origin: OriginXiaonei},
			{Kind: AddNode, Day: 0, U: 1, Origin: OriginXiaonei},
			{Kind: AddEdge, Day: 0, U: 0, V: 1},
			{Kind: AddNode, Day: 2, U: 2, Origin: OriginFiveQ},
			{Kind: AddEdge, Day: 2, U: 1, V: 2},
			{Kind: AddEdge, Day: 3, U: 0, V: 2},
		},
	}))
	// A header that lies about its count must fail, not pre-allocate.
	lying := append([]byte{}, withoutFooter(full)...)
	putUvarint10(lying[fixedHeaderLen-encCountPad:fixedHeaderLen], 1<<32)
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeBytes(data)
		if err != nil {
			return // rejected input is fine; panics and hangs are not
		}
		var ws seekBuffer
		enc, err := NewEncoder(&ws)
		if err != nil {
			t.Fatal(err)
		}
		enc.SetSeed(tr.Meta.Seed)
		enc.SetMergeDay(tr.Meta.MergeDay)
		for i, ev := range tr.Events {
			if err := enc.Write(ev); err != nil {
				t.Fatalf("accepted event %d does not re-encode: %v", i, err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		tr2, err := decodeBytes(ws.buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if tr2.Meta != enc.Meta() {
			t.Fatalf("meta round trip: wrote %+v, read %+v", enc.Meta(), tr2.Meta)
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
	seg := encodeSegBytes(f, tr, true)
	for _, full := range [][]byte{encodeBytes(f, tr), seg} {
		f.Add(full)
		f.Add(full[:len(full)*2/3]) // cut mid-event or mid-frame
	}
	f.Add(withoutFooter(seg))

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
