package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSegTailProbeLiveWriter follows a segmented file through its life:
// unreadable before the first frame, sealing days as frames flush, torn
// tails waited out, and finalized on Close. This is the live-follow
// story for compressed traces — frames replace day-boundary flushes as
// the unit of visibility.
func TestSegTailProbeLiveWriter(t *testing.T) {
	tr := synthTrace(257)
	path := filepath.Join(t.TempDir(), "live.seg")
	probe := NewTailProbe(path)
	if _, err := probe.Probe(); err == nil {
		t.Fatal("probe of a missing file succeeded")
	}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)

	// Nothing flushed yet: the file is empty (the header is lazy), so the
	// probe backs off.
	if _, err := probe.Probe(); err == nil {
		t.Fatal("probe of an empty file succeeded")
	}

	i := 0
	writeThrough := func(day int32) {
		t.Helper()
		for ; i < len(tr.Events) && tr.Events[i].Day <= day; i++ {
			if err := enc.Write(tr.Events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	countThrough := func(day int32) int64 {
		var n int64
		for _, ev := range tr.Events {
			if ev.Day <= day {
				n++
			}
		}
		return n
	}

	writeThrough(1)
	snap, err := probe.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SealedDay != 0 || snap.Finalized || snap.Anomaly != nil {
		t.Fatalf("after days 0-1: %+v", snap)
	}
	if snap.Events != countThrough(0) {
		t.Fatalf("sealed events = %d, want %d", snap.Events, countThrough(0))
	}

	// A torn trailing frame (half a frame header) is waited out, not an
	// anomaly, and moves nothing.
	if _, err := f.Write([]byte("RRSG\x01\x02")); err != nil {
		t.Fatal(err)
	}
	snap, err = probe.Probe()
	if err != nil || snap.SealedDay != 0 || snap.Anomaly != nil {
		t.Fatalf("torn tail: %+v, %v", snap, err)
	}
	// Writer's next frame overwrites nothing — in reality the torn bytes
	// are the writer's own partial write; simulate completion by removing
	// them before the next flush.
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(fi.Size() - 6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}

	writeThrough(9)
	snap, err = probe.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SealedDay != 8 || snap.Finalized {
		t.Fatalf("after days 0-9: %+v", snap)
	}
	if snap.Events != countThrough(8) {
		t.Fatalf("sealed events = %d, want %d", snap.Events, countThrough(8))
	}

	// The snapshot's source replays exactly the sealed prefix, and the
	// consistency probe answers over it.
	src := snap.Source()
	got := drain(t, src)
	if int64(len(got)) != snap.Events {
		t.Fatalf("snapshot source: %d events, want %d", len(got), snap.Events)
	}
	for j := range got {
		if got[j] != tr.Events[j] {
			t.Fatalf("snapshot event %d: %+v, want %+v", j, got[j], tr.Events[j])
		}
	}
	if n, ok := EventsThrough(src, 5); !ok || n != countThrough(5) {
		t.Fatalf("EventsThrough(5) = %d, %v; want %d", n, ok, countThrough(5))
	}
	if cur, err := src.OpenAt(4); err != nil {
		t.Fatal(err)
	} else {
		ev, ok, err := cur.Next()
		cur.Close()
		if err != nil || !ok || ev.Day != 4 {
			t.Fatalf("snapshot OpenAt(4) = %+v ok=%v err=%v", ev, ok, err)
		}
	}

	// Finalize: every day seals, including the last.
	for ; i < len(tr.Events); i++ {
		if err := enc.Write(tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err = probe.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finalized || snap.SealedDay != tr.Meta.Days-1 || int64(snap.Events) != int64(len(tr.Events)) {
		t.Fatalf("finalized: %+v", snap)
	}
	if snap.Meta != tr.Meta {
		t.Fatalf("finalized meta %+v, want %+v", snap.Meta, tr.Meta)
	}
}

// TestSegTailProbeTrustedFinalized: the first probe of an
// already-finalized segmented file trusts header and footer without
// decoding, exactly like the flat fast path, and its snapshot source
// still replays correctly.
func TestSegTailProbeTrustedFinalized(t *testing.T) {
	tr := synthTrace(129)
	path := filepath.Join(t.TempDir(), "final.seg")
	encodeSegToFile(t, tr, path, true)

	probe := NewTailProbe(path)
	snap, err := probe.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finalized || snap.Meta != tr.Meta || int64(snap.Events) != int64(len(tr.Events)) {
		t.Fatalf("trusted probe: %+v", snap)
	}
	got := drain(t, snap.Source())
	if len(got) != len(tr.Events) {
		t.Fatalf("trusted source: %d events, want %d", len(got), len(tr.Events))
	}
	// A second probe of the unchanged file re-renders the same view.
	snap2, err := probe.Probe()
	if err != nil || !snap2.Finalized || snap2.Events != snap.Events {
		t.Fatalf("re-probe: %+v, %v", snap2, err)
	}
}

// TestSegTailProbeCorruptFrame: a complete frame failing its checksum is
// an anomaly — reported, frontier pinned before the damage, sealed
// prefix still serveable.
func TestSegTailProbeCorruptFrame(t *testing.T) {
	tr := synthTrace(257)
	path := filepath.Join(t.TempDir(), "corrupt.seg")

	// Build a mid-write file (no Close): frames only.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewSegEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(-1)
	for _, ev := range tr.Events {
		if prev >= 0 && ev.Day > prev {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Day
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Locate frame 3 via a clean probe's segment table, then corrupt it.
	clean := NewTailProbe(path)
	snapClean, err := clean.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if len(snapClean.segs) < 5 {
		t.Fatalf("need >= 5 frames, got %d", len(snapClean.segs))
	}
	victim := snapClean.segs[3]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.fileOff+segFrameHdrLen] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	probe := NewTailProbe(path)
	snap, err := probe.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(snap.Anomaly, ErrSegmentCorrupt) {
		t.Fatalf("anomaly = %v, want ErrSegmentCorrupt", snap.Anomaly)
	}
	if snap.FrontierEvents != int64(victim.firstEvent) {
		t.Fatalf("frontier = %d events, want pinned at %d", snap.FrontierEvents, victim.firstEvent)
	}
	// The prefix before the damaged frame still seals and serves.
	if snap.Events <= 0 || snap.SealedDay < 0 {
		t.Fatalf("no sealed prefix: %+v", snap)
	}
	got := drain(t, snap.Source())
	if int64(len(got)) != snap.Events {
		t.Fatalf("sealed prefix: %d events, want %d", len(got), snap.Events)
	}
}
