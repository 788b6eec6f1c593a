package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// drainCursor reads every remaining event off a cursor.
func drainCursor(t *testing.T, cur Cursor) []Event {
	t.Helper()
	var out []Event
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// suffixFrom returns the events with Day >= day.
func suffixFrom(events []Event, day int32) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Day >= day {
			out = append(out, ev)
		}
	}
	return out
}

func sameEvents(t *testing.T, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFileSourceOpenAt asserts the day-addressable data plane on an
// indexed trace file: OpenAt(day) yields exactly the events from that day
// on, and — the acceptance criterion — it does so without decoding the
// prefix, held by bytes-read accounting against the file size.
func TestFileSourceOpenAt(t *testing.T) {
	tr := synthTrace(400)
	path := filepath.Join(t.TempDir(), "idx.trace")
	encodeToFile(t, tr, path)
	fs, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() == nil {
		t.Fatal("Encoder-written file has no day index")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 5} {
		cur, err := fs.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur)
		want := suffixFrom(tr.Events, day)
		sameEvents(t, "OpenAt", got, want)
		read := cur.(*fileCursor).bytesRead()
		cur.Close()
		// The cursor may only read the tail segment (plus bufio slack);
		// a prefix decode would read nearly the whole file. Late opens
		// must therefore read a small fraction of it.
		if day >= lastDay && read > fi.Size()/4 {
			t.Errorf("OpenAt(%d) read %d of %d bytes; prefix was decoded", day, read, fi.Size())
		}
	}

	// Every index entry must point at a decodable event boundary.
	for _, e := range fs.Index() {
		cur, err := fs.OpenAt(e.Day)
		if err != nil {
			t.Fatal(err)
		}
		ev, ok, err := cur.Next()
		cur.Close()
		if err != nil || !ok || ev.Day != e.Day {
			t.Fatalf("index day %d: first event %+v ok=%v err=%v", e.Day, ev, ok, err)
		}
	}
}

// TestFileSourceCountBoundAtOpen pins the contract snapshots rely on: a
// source replays exactly the events counted when it was opened. After
// the file is extended in place (OpenAppend, whose Close back-patches a
// larger count into the header), the old source's Open, OpenAt and
// EventsThrough still answer for the open-time prefix and Meta.
func TestFileSourceCountBoundAtOpen(t *testing.T) {
	tr := synthTrace(300)
	evs := tr.Events
	k := sealedUpTo(evs, evs[len(evs)-1].Day/2)
	path := filepath.Join(t.TempDir(), "grow.trace")
	encodePrefixToFile(t, evs[:k], tr.Meta.Seed, tr.Meta.MergeDay, path)
	src, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := src.Meta()
	appendToFile(t, evs[k:], path)

	grown, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Events() != uint64(len(evs)) {
		t.Fatalf("re-open after append: %d events, want %d", grown.Events(), len(evs))
	}
	if src.Meta() != meta {
		t.Fatalf("meta moved: %+v, opened with %+v", src.Meta(), meta)
	}
	prefix := SliceSource(evs[:k])
	sameEvents(t, "Open", drain(t, src), prefix)
	for day := int32(0); day <= tr.Meta.Days+1; day++ {
		cur, err := src.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur)
		cur.Close()
		sameEvents(t, fmt.Sprintf("OpenAt(%d)", day), got, suffixFrom(prefix, day))
		n, ok := EventsThrough(src, day)
		want, _ := EventsThrough(prefix, day)
		if !ok || n != want {
			t.Fatalf("EventsThrough(%d) = (%d,%v), want (%d,true)", day, n, ok, want)
		}
	}
}

// TestOpenAtIndexless covers the tolerated-if-absent contract: a flat
// file without its index footer still decodes, and OpenAt falls back to
// decode-and-discard with identical results.
func TestOpenAtIndexless(t *testing.T) {
	tr := synthTrace(120)
	path := filepath.Join(t.TempDir(), "indexless.trace")
	encodeToFile(t, tr, path)
	writeFile(t, path, stripFooter(t, path))
	fs, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() != nil {
		t.Fatal("index-less file grew an index")
	}
	cur, err := fs.Open()
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "full", drainCursor(t, cur), tr.Events)
	cur.Close()

	day := tr.Events[len(tr.Events)-1].Day / 2
	cur, err = fs.OpenAt(day)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "fallback", drainCursor(t, cur), suffixFrom(tr.Events, day))
	cur.Close()
}

// TestCorruptIndexReadsAsAbsent pins the footer's integrity contract: a
// damaged index must read as *absent* (falling back to prefix decode),
// never as a wrong seek target — OpenAt trusts an entry's event ordinal,
// so silent corruption would truncate a replay instead of failing it.
func TestCorruptIndexReadsAsAbsent(t *testing.T) {
	tr := synthTrace(200)
	path := filepath.Join(t.TempDir(), "c.trace")
	encodeToFile(t, tr, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint64(raw[len(raw)-indexTrailerLen : len(raw)-indexTrailerLen+8]))
	footerStart := len(raw) - indexTrailerLen - footerLen
	day := tr.Events[len(tr.Events)-1].Day / 2
	// Flip one byte at every position inside the footer block: each
	// corruption must be rejected by the checksum (or the structural
	// checks), and OpenAt must still serve the exact suffix via the
	// fallback path.
	for off := footerStart; off < footerStart+footerLen; off += 7 {
		mut := append([]byte{}, raw...)
		mut[off] ^= 0x41
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenTrace(path)
		if err != nil {
			t.Fatalf("offset %d: corrupt index broke open: %v", off, err)
		}
		if fs.Index() != nil {
			t.Fatalf("offset %d: corrupt index accepted", off)
		}
		cur, err := fs.OpenAt(day)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		sameEvents(t, "corrupt-index fallback", drainCursor(t, cur), suffixFrom(tr.Events, day))
		cur.Close()
	}
}

// TestEmptyIndexReadsAsAbsent: a well-formed day index with no entries
// cannot describe a non-empty stream, in either container. Trusting it
// made OpenAt past day 0 return an exhausted cursor and EventsThrough
// the whole count; it must read as absent instead, and the tail probe,
// which then decodes, must answer with an index of its own.
func TestEmptyIndexReadsAsAbsent(t *testing.T) {
	tr := synthTrace(129)
	const day = 16
	want := suffixFrom(tr.Events, day)
	through, _ := EventsThrough(SliceSource(tr.Events), day-1)
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		write  func(path string)
		footer func(s *FileSource) []byte
	}{
		{"flat", func(path string) { encodeToFile(t, tr, path) },
			func(*FileSource) []byte { return appendDayIndex(nil, nil) }},
		{"segmented", func(path string) { encodeSegToFile(t, tr, path, true) },
			func(s *FileSource) []byte { return appendSegFooter(nil, s.segs, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			c.write(path)
			s, err := OpenTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, path, append(stripFooter(t, path), appendTrailer(c.footer(s))...))

			s, err = OpenTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if s.Index() != nil {
				t.Fatal("empty index accepted for a non-empty stream")
			}
			cur, err := s.OpenAt(day)
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, "OpenAt", drainCursor(t, cur), want)
			cur.Close()
			if n, ok := EventsThrough(s, day-1); ok {
				t.Fatalf("EventsThrough(%d) = %d from an absent index", day-1, n)
			}

			snap, err := NewTailProbe(path).Probe()
			if err != nil {
				t.Fatal(err)
			}
			if !snap.Finalized || snap.Events != int64(len(tr.Events)) {
				t.Fatalf("probe: %+v", snap)
			}
			if n, ok := EventsThrough(snap.Source(), day-1); !ok || n != through {
				t.Fatalf("probe EventsThrough(%d) = %d, %v; want %d", day-1, n, ok, through)
			}
		})
	}
}

// TestEventsThrough covers the checkpoint plane's consistency probe.
func TestEventsThrough(t *testing.T) {
	tr := synthTrace(120)
	path := filepath.Join(t.TempDir(), "n.trace")
	encodeToFile(t, tr, path)
	fs, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, day := range []int32{0, 1, lastDay / 2, lastDay, lastDay + 9} {
		var want int64
		for _, ev := range tr.Events {
			if ev.Day <= day {
				want++
			}
		}
		for _, src := range []Source{fs, SliceSource(tr.Events), tr.Source()} {
			got, ok := EventsThrough(src, day)
			if !ok || got != want {
				t.Fatalf("EventsThrough(%T, %d) = %d,%v, want %d", src, day, got, ok, want)
			}
		}
	}
	if _, ok := EventsThrough(onlySource{SliceSource(tr.Events)}, 3); ok {
		t.Fatal("opaque source claimed a cheap event count")
	}
}

// TestSliceSourceOpenAt covers the in-memory source's OpenAt.
func TestSliceSourceOpenAt(t *testing.T) {
	tr := synthTrace(60)
	src := SliceSource(tr.Events)
	for _, day := range []int32{0, 3, 10_000} {
		cur, err := src.OpenAt(day)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "slice", drainCursor(t, cur), suffixFrom(tr.Events, day))
		cur.Close()
	}
}

// onlySource hides every optional interface of a Source and its
// concrete type.
type onlySource struct{ src Source }

func (s onlySource) Open() (Cursor, error)            { return s.src.Open() }
func (s onlySource) OpenAt(day int32) (Cursor, error) { return s.src.OpenAt(day) }

// TestReplayFromDay asserts the segmented-replay contract the checkpoint
// plane relies on: replaying [0, D] into a state and then resuming the
// same source from D+1 fires exactly the day boundaries and events of a
// single whole-trace replay.
func TestReplayFromDay(t *testing.T) {
	tr := synthTrace(200)
	src := SliceSource(tr.Events)
	type mark struct {
		day   int32
		event bool
	}
	record := func(marks *[]mark) Hooks {
		return Hooks{
			OnEvent:  func(_ *State, ev Event) { *marks = append(*marks, mark{ev.Day, true}) },
			OnDayEnd: func(_ *State, day int32) { *marks = append(*marks, mark{day, false}) },
		}
	}

	var whole []mark
	full, err := ReplaySource(src, record(&whole))
	if err != nil {
		t.Fatal(err)
	}

	lastDay := tr.Events[len(tr.Events)-1].Day
	for _, split := range []int32{0, 1, lastDay / 3, lastDay - 1, lastDay} {
		var seg []mark
		st := NewState(16, 16)
		// First segment: replay the events with Day <= split, then fire
		// the boundaries up to split itself, exactly as a checkpointing
		// engine pass does before saving.
		hooks := record(&seg)
		prefix := tr.Events[:len(tr.Events)-len(suffixFrom(tr.Events, split+1))]
		if err := ReplayFrom(nil, st, SliceSource(prefix), hooks, 0); err != nil {
			t.Fatal(err)
		}
		for day := st.Day + 1; day <= split; day++ {
			hooks.OnDayEnd(st, day)
		}
		// Second segment: resume from split+1.
		if err := ReplayFrom(nil, st, src, hooks, split+1); err != nil {
			t.Fatal(err)
		}
		if len(seg) != len(whole) {
			t.Fatalf("split %d: %d marks, want %d", split, len(seg), len(whole))
		}
		for i := range seg {
			if seg[i] != whole[i] {
				t.Fatalf("split %d: mark %d = %+v, want %+v", split, i, seg[i], whole[i])
			}
		}
		if st.Day != full.Day || st.Graph.NumNodes() != full.Graph.NumNodes() || st.Graph.NumEdges() != full.Graph.NumEdges() {
			t.Fatalf("split %d: state diverged", split)
		}
	}
}
