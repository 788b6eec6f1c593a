package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// synthTrace builds a Validate()-clean trace of n nodes with a ring of
// edges, spread over one event-day per 8 events, for source/codec tests.
func synthTrace(n int) *Trace {
	events := make([]Event, 0, 2*n)
	day := int32(0)
	for i := 0; i < n; i++ {
		events = append(events, Event{Kind: AddNode, Day: day, U: int32(i), Origin: Origin(i % 3)})
		if i > 0 {
			events = append(events, Event{Kind: AddEdge, Day: day, U: int32(i - 1), V: int32(i)})
		}
		if i%4 == 3 {
			day++
		}
	}
	tr := &Trace{Events: events}
	tr.Meta = Summarize(events)
	tr.Meta.Seed = 99
	return tr
}

// writeTrace streams a trace through the encoder newEnc returns for ws:
// NewEncoder for a flat container, NewSegEncoder for a segmented one.
// flushEveryDay flushes at each day boundary, which cuts a segmented
// file's frames there and produces a multi-frame file from a small
// trace.
func writeTrace(t testing.TB, ws io.WriteSeeker, newEnc func(io.WriteSeeker) (*Encoder, error), tr *Trace, flushEveryDay bool) {
	t.Helper()
	enc, err := newEnc(ws)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	prev := int32(-1)
	for _, ev := range tr.Events {
		if flushEveryDay && prev >= 0 && ev.Day > prev {
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Day
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeFile is writeTrace into a new file at path.
func encodeFile(t testing.TB, path string, newEnc func(io.WriteSeeker) (*Encoder, error), tr *Trace, flushEveryDay bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	writeTrace(t, f, newEnc, tr, flushEveryDay)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeToFile writes a trace as a flat file.
func encodeToFile(t *testing.T, tr *Trace, path string) {
	t.Helper()
	encodeFile(t, path, NewEncoder, tr, false)
}

// encodeBytes renders a trace as an in-memory flat container.
func encodeBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var ws seekBuffer
	writeTrace(t, &ws, NewEncoder, tr, false)
	return ws.buf
}

// withoutFooter returns a container's bytes without its footer and
// trailer (both containers end in the same trailer): what a writer that
// crashed between its last event and its footer leaves, header restored.
func withoutFooter(data []byte) []byte {
	footLen := int64(binary.LittleEndian.Uint64(data[len(data)-indexTrailerLen:]))
	return data[:int64(len(data))-indexTrailerLen-footLen]
}

// decodeBytes opens an in-memory container and collects its events.
func decodeBytes(data []byte) (*Trace, error) {
	s, err := openBytes(data)
	if err != nil {
		return nil, err
	}
	cur, err := s.Open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	tr := &Trace{Meta: s.Meta()}
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return tr, nil
		}
		tr.Events = append(tr.Events, ev)
	}
}

// drain collects every event of one pass.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	cur, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
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

// TestSliceFileCursorEquivalence is the data-plane equivalence guarantee
// at the cursor level: a SliceSource over the in-memory events and a
// FileSource over the Encoder's stream yield the same events, and the
// FileSource is re-openable — a second pass sees the same stream.
func TestSliceFileCursorEquivalence(t *testing.T) {
	tr := synthTrace(257)
	tr.Meta.MergeDay = 11
	path := filepath.Join(t.TempDir(), "synth.trace")
	encodeToFile(t, tr, path)

	fs, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Meta() != tr.Meta {
		t.Fatalf("file meta %+v != slice meta %+v", fs.Meta(), tr.Meta)
	}

	want := drain(t, SliceSource(tr.Events))
	if len(want) != len(tr.Events) {
		t.Fatalf("slice cursor yielded %d events, want %d", len(want), len(tr.Events))
	}
	for pass := 0; pass < 2; pass++ { // re-open semantics: every pass is full
		got := drain(t, fs)
		if len(got) != len(want) {
			t.Fatalf("pass %d: file cursor yielded %d events, want %d", pass, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pass %d event %d: file %+v != slice %+v", pass, i, got[i], want[i])
			}
		}
	}

	// Replay equivalence through the generic source path.
	stSlice, err := ReplaySource(tr.Source(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	stFile, err := ReplaySource(fs, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stSlice.Graph.NumNodes() != stFile.Graph.NumNodes() || stSlice.Graph.NumEdges() != stFile.Graph.NumEdges() {
		t.Fatalf("replayed states differ: %d/%d nodes, %d/%d edges",
			stSlice.Graph.NumNodes(), stFile.Graph.NumNodes(),
			stSlice.Graph.NumEdges(), stFile.Graph.NumEdges())
	}
}

func TestEncoderMetaAccumulates(t *testing.T) {
	tr := synthTrace(32)
	path := filepath.Join(t.TempDir(), "meta.trace")
	encodeToFile(t, tr, path)
	fs, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Meta(); got != tr.Meta {
		t.Fatalf("encoder-accumulated meta %+v != Summarize %+v", got, tr.Meta)
	}
}

func TestEncoderRejectsDayRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Kind: AddNode, Day: 5, U: 0}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Kind: AddNode, Day: 4, U: 1}); err == nil {
		t.Fatal("day regression not rejected")
	}
}

// TestEncoderUnclosedFileIsInvalid: a file whose Encoder never reached
// Close (writer crashed mid-stream) must not decode as a valid trace —
// the placeholder header's count slot is deliberately poisoned until the
// back-patch.
func TestEncoderUnclosedFileIsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range synthTrace(16).Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. The events may or may not have been
	// flushed; either way the header must reject the file.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(path); err == nil {
		t.Fatal("unclosed encoder file opened as a valid trace")
	}
}

func TestFileSourceTruncated(t *testing.T) {
	tr := synthTrace(64)
	path := filepath.Join(t.TempDir(), "trunc.trace")
	encodeToFile(t, tr, path)
	// The file ends with the day-index footer; cut inside the event
	// stream before it, not inside the index.
	events := stripFooter(t, path)
	cut := filepath.Join(t.TempDir(), "cut.trace")
	writeFile(t, cut, events[:len(events)-7])
	fs, err := OpenTrace(cut) // header is intact
	if err != nil {
		t.Fatal(err)
	}
	if fs.Index() != nil {
		t.Fatal("truncated file kept a day index")
	}
	cur, err := fs.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		_, ok, err := cur.Next()
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			return
		}
		if !ok {
			t.Fatal("truncated stream drained cleanly")
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	// Each case hand-assembles a finalized flat file without a footer: a
	// header declaring count events, then the event bytes.
	file := func(count uint64, parts ...[]byte) []byte {
		out, err := renderFixedHeader(magic, Meta{MergeDay: -1}, count, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"count too large", file(maxEventCount + 1), ErrCountTooLarge},
		{"bad kind", file(1, []byte{7}, uv(0)), ErrBadKind},
		{"day overflow", file(1, []byte{byte(AddNode)}, uv(uint64(1)<<32), uv(0), []byte{0}), ErrDayOverflow},
		{"id overflow", file(1, []byte{byte(AddNode)}, uv(0), uv(uint64(1)<<40), []byte{0}), ErrIDOverflow},
		{"truncated event", file(3, []byte{byte(AddNode)}, uv(0), uv(0), []byte{0}), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeBytes(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
