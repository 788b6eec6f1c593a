package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeSegToFile writes a trace as a segmented file. flushEveryDay
// forces a frame cut at each day boundary, producing a multi-frame file
// from a small trace.
func encodeSegToFile(t *testing.T, tr *Trace, path string, flushEveryDay bool) {
	t.Helper()
	encodeFile(t, path, NewSegEncoder, tr, flushEveryDay)
}

// encodeSegBytes renders a trace as an in-memory segmented container.
func encodeSegBytes(t testing.TB, tr *Trace, flushEveryDay bool) []byte {
	t.Helper()
	var ws seekBuffer
	writeTrace(t, &ws, NewSegEncoder, tr, flushEveryDay)
	return ws.buf
}

// openBytes opens a container of either format held in memory, served
// uncached: a memory blob has no process-stable identity for the frame
// cache.
func openBytes(data []byte) (*FileSource, error) {
	s, err := openContainer(&blobHandle{ra: bytes.NewReader(data)}, int64(len(data)), "in-memory trace")
	if err != nil {
		return nil, err
	}
	s.blob = bytesBlob{data: data}
	return s, nil
}

type bytesBlob struct{ data []byte }

func (b bytesBlob) open() (*blobHandle, error) {
	return &blobHandle{ra: bytes.NewReader(b.data)}, nil
}

// TestSegRoundtripMatchesFlat is the tentpole's correctness bar at the
// event level: the segmented container must yield exactly the events and
// meta the flat container does.
func TestSegRoundtripMatchesFlat(t *testing.T) {
	tr := synthTrace(513)
	tr.Meta.MergeDay = 17
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.trace")
	segPath := filepath.Join(dir, "seg.trace")
	encodeToFile(t, tr, flatPath)
	encodeSegToFile(t, tr, segPath, true)

	flat, err := OpenTrace(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenTrace(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Meta() != flat.Meta() {
		t.Fatalf("meta: seg %+v, flat %+v", seg.Meta(), flat.Meta())
	}
	if seg.Events() != uint64(len(tr.Events)) {
		t.Fatalf("Events() = %d, want %d", seg.Events(), len(tr.Events))
	}
	fe, se := drain(t, flat), drain(t, seg)
	if len(fe) != len(se) {
		t.Fatalf("event count: seg %d, flat %d", len(se), len(fe))
	}
	for i := range fe {
		if fe[i] != se[i] {
			t.Fatalf("event %d: seg %+v, flat %+v", i, se[i], fe[i])
		}
	}
	st := seg.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected a multi-frame file, got %d segments", st.Segments)
	}
	if !st.Indexed || st.RawBytes == 0 || st.CompressedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A second pass sees the same stream (Source contract).
	if se2 := drain(t, seg); len(se2) != len(se) {
		t.Fatalf("second pass: %d events, want %d", len(se2), len(se))
	}
}

// TestSegOpenAt verifies day addressing: the cursor yields exactly the
// events with Day >= day, and — the point of segmentation — the prefix
// segments are never even read, which the cursor's fetched-byte count
// observes.
func TestSegOpenAt(t *testing.T) {
	tr := synthTrace(513)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	s, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := full.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	fullBytes := full.(*fileCursor).bytesRead()
	full.Close()

	lastDay := tr.Meta.Days - 1
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 1} {
		cur, err := s.OpenAt(day)
		if err != nil {
			t.Fatalf("OpenAt(%d): %v", day, err)
		}
		var got []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				t.Fatalf("OpenAt(%d): %v", day, err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
		var want []Event
		for _, ev := range tr.Events {
			if ev.Day >= day {
				want = append(want, ev)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("OpenAt(%d): %d events, want %d", day, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("OpenAt(%d) event %d: %+v, want %+v", day, i, got[i], want[i])
			}
		}
		if sc, ok := cur.(*fileCursor); ok && day >= lastDay/2 && day <= lastDay {
			if n := sc.bytesRead(); n >= fullBytes {
				t.Fatalf("OpenAt(%d) fetched %d bytes, full pass fetched %d: prefix segments were read", day, n, fullBytes)
			}
		}
		cur.Close()
	}
}

// TestSegOpenAtMidFrameDay: a day straddling a frame boundary (Flush
// mid-day) must still seek correctly — the day index points into the
// middle of a frame and the reader discards within it.
func TestSegOpenAtMidFrameDay(t *testing.T) {
	var events []Event
	for i := 0; i < 64; i++ {
		events = append(events, Event{Kind: AddNode, Day: int32(i / 16), U: int32(i), Origin: OriginXiaonei})
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)

	var ws seekBuffer
	enc, err := NewSegEncoder(&ws)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 { // cut frames mid-day
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := openBytes(ws.buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.segs) < 4 {
		t.Fatalf("expected several frames, got %d", len(s.segs))
	}
	for day := int32(0); day <= 4; day++ {
		cur, err := s.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
		cur.Close()
		want := 0
		for _, ev := range events {
			if ev.Day >= day {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("OpenAt(%d): %d events, want %d", day, len(got), want)
		}
	}
}

// TestSegCorruptionTypedError: a flipped payload byte must surface as
// ErrSegmentCorrupt naming the exact segment and file offset, and the
// prefix before the damage must still replay.
func TestSegCorruptionTypedError(t *testing.T) {
	tr := synthTrace(257)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	s, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.segs) < 3 {
		t.Fatalf("need >= 3 frames, got %d", len(s.segs))
	}
	victim := s.segs[2]

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.fileOff+segFrameHdrLen+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenTrace(path) // header+footer untouched: opens
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s2.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var n uint64
	for {
		_, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("error = %v, want ErrSegmentCorrupt", err)
			}
			want := fmt.Sprintf("segment 2 at byte %d", victim.fileOff)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not pin %q", err, want)
			}
			break
		}
		if !ok {
			t.Fatal("corrupt frame decoded cleanly")
		}
		n++
	}
	// Everything before the damaged segment decoded.
	if n < victim.firstEvent {
		t.Fatalf("only %d events before failure, want at least %d", n, victim.firstEvent)
	}
	// Day-addressed reads that skip the damaged segment still work.
	lastSeg := s2.segs[len(s2.segs)-1]
	cur2, err := s2.OpenAt(lastSeg.firstDay)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	if _, ok, err := cur2.Next(); err != nil || !ok {
		t.Fatalf("post-damage OpenAt: ok=%v err=%v", ok, err)
	}
}

// TestSegFooterStrippedRebuild: with the footer gone (crash after the
// last frame, before Close's footer write — then a header restored by
// hand, or a future partial-recovery tool), the frame scan rebuilds the
// segment table; the day index is absent, so OpenAt degrades to
// decode-and-discard and EventsThrough says "cannot answer", exactly
// like a flat file with a damaged index.
func TestSegFooterStrippedRebuild(t *testing.T) {
	tr := synthTrace(129)
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, tr, path, true)
	writeFile(t, path, stripFooter(t, path))

	s, err := OpenTrace(path)
	if err != nil {
		t.Fatalf("footer-less open: %v", err)
	}
	if s.Index() != nil {
		t.Fatal("index should be absent after footer loss")
	}
	if _, ok := EventsThrough(s, 3); ok {
		t.Fatal("EventsThrough should not answer without an index")
	}
	got := drain(t, s)
	if len(got) != len(tr.Events) {
		t.Fatalf("drained %d events, want %d", len(got), len(tr.Events))
	}
	cur, err := s.OpenAt(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ev, ok, err := cur.Next()
	if err != nil || !ok || ev.Day < 5 {
		t.Fatalf("fallback OpenAt(5) = %+v ok=%v err=%v", ev, ok, err)
	}
}

// stripFooter returns the bytes of the trace at path without its footer
// and trailer.
func stripFooter(t *testing.T, path string) []byte {
	t.Helper()
	return withoutFooter(readAll(t, path))
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegFooterStrippedImplausibleFrame: the footer-less open rebuilds
// the segment table from frame headers the payload CRC does not cover,
// so a header declaring an absurd raw length must be refused at open —
// before a cursor allocates that length — exactly as TailProbe refuses
// it.
func TestSegFooterStrippedImplausibleFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, synthTrace(129), path, true)
	data := stripFooter(t, path)
	binary.LittleEndian.PutUint32(data[fixedHeaderLen+8:], 0xF0000000) // the first frame's rawLen
	writeFile(t, path, data)

	if s, err := OpenTrace(path); err == nil {
		t.Fatalf("footer-less trace with a %d-byte frame opened (%d events)", 0xF0000000, s.Events())
	}
	snap, err := NewTailProbe(path).Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(snap.Anomaly, ErrSegmentCorrupt) || snap.Events != 0 {
		t.Fatalf("TailProbe: anomaly %v with %d events, want ErrSegmentCorrupt and none", snap.Anomaly, snap.Events)
	}
}

// TestSegFrameLongerThanItsEvents: a frame header may not declare more
// raw bytes than its events can render to (maxRawEventLen each), or a
// cursor would pre-size a buffer to that length before finding out. Both
// readers refuse the header before loading the frame.
func TestSegFrameLongerThanItsEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, synthTrace(129), path, true)
	data := stripFooter(t, path)
	binary.LittleEndian.PutUint32(data[fixedHeaderLen+8:], maxSegFrameLen) // the first frame's rawLen
	writeFile(t, path, data)

	if _, err := OpenTrace(path); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("open = %v, want ErrSegmentCorrupt", err)
	}
	snap, err := NewTailProbe(path).Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(snap.Anomaly, ErrSegmentCorrupt) || snap.Events != 0 {
		t.Fatalf("TailProbe: anomaly %v with %d events, want ErrSegmentCorrupt and none", snap.Anomaly, snap.Events)
	}
}

// TestSegNotFinalized: a file whose writer flushed frames but never
// closed must be rejected loudly with the typed error.
func TestSegNotFinalized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range synthTrace(65).Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close() // no enc.Close: simulated crash
	if _, err := OpenTrace(path); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("open = %v, want ErrNotFinalized", err)
	}
}

// TestSegEmptyTrace: zero events still produce a well-formed container.
func TestSegEmptyTrace(t *testing.T) {
	blob := encodeSegBytes(t, &Trace{Meta: Meta{MergeDay: -1}}, false)
	s, err := openBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events() != 0 || len(drain(t, s)) != 0 {
		t.Fatalf("empty container decoded %d events", s.Events())
	}
}

// TestOpenTraceSniffs: one open for both container formats.
func TestOpenTraceSniffs(t *testing.T) {
	tr := synthTrace(65)
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.trace")
	segPath := filepath.Join(dir, "seg.trace")
	encodeToFile(t, tr, flatPath)
	encodeSegToFile(t, tr, segPath, false)

	ff, err := OpenTrace(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Stats().Segmented {
		t.Fatal("flat OpenTrace opened as segmented")
	}
	sf, err := OpenTrace(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Stats().Segmented {
		t.Fatal("seg OpenTrace opened as flat")
	}
	if ff.Meta() != sf.Meta() {
		t.Fatalf("meta: flat %+v, seg %+v", ff.Meta(), sf.Meta())
	}
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(junk); err == nil {
		t.Fatal("junk opened")
	}
}

// TestSegAppendRejected: segmented containers are immutable; OpenAppend
// must refuse them with the typed error, not a confusing magic failure.
func TestSegAppendRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.trace")
	encodeSegToFile(t, synthTrace(33), path, false)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := OpenAppend(f); !errors.Is(err, ErrNotAppendable) {
		t.Fatalf("OpenAppend on segmented = %v, want ErrNotAppendable", err)
	}
}

// TestSegEventsThrough: the checkpoint plane's consistency probe must
// answer identically over both containers.
func TestSegEventsThrough(t *testing.T) {
	tr := synthTrace(257)
	blob := encodeSegBytes(t, tr, true)
	s, err := openBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	for day := int32(-1); day <= tr.Meta.Days+1; day++ {
		want, ok := EventsThrough(SliceSource(tr.Events), day)
		if !ok {
			t.Fatal("slice EventsThrough not ok")
		}
		got, ok := EventsThrough(s, day)
		if !ok {
			t.Fatalf("seg EventsThrough(%d) not ok", day)
		}
		if got != want {
			t.Fatalf("EventsThrough(%d) = %d, want %d", day, got, want)
		}
	}
}

// TestSegPrefetchWraps: the decode-ahead plane must treat the segmented
// source like any other file-backed source — decompression happens on
// the reader goroutine and the events come out identical.
func TestSegPrefetchWraps(t *testing.T) {
	tr := synthTrace(257)
	blob := encodeSegBytes(t, tr, true)
	s, err := openBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, Prefetch(s))
	if len(got) != len(tr.Events) {
		t.Fatalf("prefetch drain: %d events, want %d", len(got), len(tr.Events))
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got[i], tr.Events[i])
		}
	}
}

// FuzzSegDecode hardens the segmented container against corrupt input:
// opening plus a full decode must never panic, hang, or over-allocate,
// and any stream it accepts must survive a re-encode round trip.
func FuzzSegDecode(f *testing.F) {
	f.Add(encodeSegBytes(f, &Trace{Meta: Meta{MergeDay: -1}}, false))
	f.Add(encodeSegBytes(f, synthTrace(41), false))
	f.Add(encodeSegBytes(f, synthTrace(129), true))
	// A footer-less (scan-rebuilt) container is valid input too.
	multi := encodeSegBytes(f, synthTrace(129), true)
	footLen := int64(uint64(multi[len(multi)-12]) | uint64(multi[len(multi)-11])<<8 | uint64(multi[len(multi)-10])<<16 | uint64(multi[len(multi)-9])<<24)
	f.Add(append([]byte{}, multi[:int64(len(multi))-indexTrailerLen-footLen]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := openBytes(data)
		if err != nil {
			return // rejected input is fine; panics and hangs are not
		}
		if s.Events() > 1<<18 {
			return // don't let a lying header make the fuzzer decode forever
		}
		cur, err := s.Open()
		if err != nil {
			return
		}
		defer cur.Close()
		var events []Event
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				return // corrupt payloads may fail mid-stream; that is the contract
			}
			if !ok {
				break
			}
			events = append(events, ev)
		}
		// Accepted streams round-trip.
		var ws seekBuffer
		enc, err := NewSegEncoder(&ws)
		if err != nil {
			t.Fatal(err)
		}
		meta := s.Meta()
		enc.SetSeed(meta.Seed)
		enc.SetMergeDay(meta.MergeDay)
		for i, ev := range events {
			if err := enc.Write(ev); err != nil {
				t.Fatalf("accepted event %d does not re-encode: %v", i, err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := openBytes(ws.buf)
		if err != nil {
			t.Fatalf("re-encoded container does not open: %v", err)
		}
		cur2, err := s2.Open()
		if err != nil {
			t.Fatal(err)
		}
		defer cur2.Close()
		for i := 0; ; i++ {
			ev, ok, err := cur2.Next()
			if err != nil {
				t.Fatalf("re-encoded event %d: %v", i, err)
			}
			if !ok {
				if i != len(events) {
					t.Fatalf("re-encoded stream has %d events, want %d", i, len(events))
				}
				break
			}
			if ev != events[i] {
				t.Fatalf("event %d round trip: %+v -> %+v", i, events[i], ev)
			}
		}
	})
}
