package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// containers lists the two encoders every codec test runs through.
var containers = []struct {
	name   string
	newEnc func(io.WriteSeeker) (*Encoder, error)
}{
	{"flat", NewEncoder},
	{"segmented", NewSegEncoder},
}

// roundTrip writes tr through each container and reads it back.
func roundTrip(t *testing.T, tr *Trace) {
	t.Helper()
	for _, c := range containers {
		var ws seekBuffer
		writeTrace(t, &ws, c.newEnc, tr, true)
		got, err := decodeBytes(ws.buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Meta != tr.Meta {
			t.Fatalf("%s: meta round trip: got %+v want %+v", c.name, got.Meta, tr.Meta)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("%s: event count %d != %d", c.name, len(got.Events), len(tr.Events))
		}
		for i := range got.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("%s: event %d: got %+v want %+v", c.name, i, got.Events[i], tr.Events[i])
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := &Trace{Events: tinyTrace()}
	tr.Meta = Summarize(tr.Events)
	tr.Meta.MergeDay = 2
	tr.Meta.Seed = 42
	roundTrip(t, tr)
}

func TestCodecEmptyTrace(t *testing.T) {
	roundTrip(t, &Trace{Meta: Meta{MergeDay: -1}})
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := decodeBytes([]byte("NOPE...."))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestDecodeTruncated cuts a flat file at every byte: a cut inside the
// header or the event stream must fail, and a cut inside the footer must
// read every event, with the day index absent.
func TestDecodeTruncated(t *testing.T) {
	tr := synthTrace(20)
	full := encodeBytes(t, tr)
	events := len(withoutFooter(full))
	for cut := 0; cut < len(full); cut++ {
		got, err := decodeBytes(full[:cut])
		switch {
		case cut < events && err == nil:
			t.Fatalf("truncation at %d of %d event-stream bytes not detected", cut, events)
		case cut >= events && err != nil:
			t.Fatalf("cut at %d, inside the footer: %v", cut, err)
		case cut >= events && len(got.Events) != len(tr.Events):
			t.Fatalf("cut at %d, inside the footer: %d events, want %d", cut, len(got.Events), len(tr.Events))
		}
	}
	// Empty stream.
	if _, err := decodeBytes(nil); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v", err)
	}
}

// checkRejects writes tr through each container with bad offered just
// before event at: Write must refuse it, and the file must come out
// exactly as if bad had never been offered.
func checkRejects(t *testing.T, tr *Trace, at int, bad Event) {
	t.Helper()
	for _, c := range containers {
		var ws seekBuffer
		enc, err := c.newEnc(&ws)
		if err != nil {
			t.Fatal(err)
		}
		enc.SetSeed(tr.Meta.Seed)
		enc.SetMergeDay(tr.Meta.MergeDay)
		for i, ev := range tr.Events {
			if i == at {
				if err := enc.Write(bad); err == nil {
					t.Fatalf("%s: %+v after day %d accepted", c.name, bad, tr.Events[i-1].Day)
				}
			}
			if err := enc.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		var want seekBuffer
		writeTrace(t, &want, c.newEnc, tr, false)
		if !bytes.Equal(ws.buf, want.buf) {
			t.Fatalf("%s: a refused event changed the file", c.name)
		}
	}
}

func TestEncodeRejectsDayRegression(t *testing.T) {
	tr := synthTrace(40)
	at := len(tr.Events) - 1
	checkRejects(t, tr, at, Event{Kind: AddNode, Day: tr.Events[at-1].Day - 1, U: 1})
}

// TestEncodeRejectsUnknownKind offers the bad event on a new day, where
// a valid one would open a day-index entry.
func TestEncodeRejectsUnknownKind(t *testing.T) {
	tr := synthTrace(40)
	at := 1
	for tr.Events[at].Day == tr.Events[at-1].Day {
		at++
	}
	checkRejects(t, tr, at, Event{Kind: Kind(7), Day: tr.Events[at].Day})
}

// TestOpenTraceOneShotLayout: a file in the one-shot layout earlier
// versions could write (the exact-size meta and a canonical count, no
// footer) does not open, and the error names the layout. The probe
// refuses it the same way.
func TestOpenTraceOneShotLayout(t *testing.T) {
	for _, tr := range []*Trace{{Meta: Meta{MergeDay: -1}}, synthTrace(40)} {
		path := filepath.Join(t.TempDir(), "oneshot.trace")
		writeFile(t, path, oneShotBytes(t, tr))
		_, err := OpenTrace(path)
		if err == nil || !strings.Contains(err.Error(), "one-shot") {
			t.Fatalf("%d events: OpenTrace err = %v, want an error naming the one-shot layout", len(tr.Events), err)
		}
		if _, err := NewTailProbe(path).Probe(); err == nil || !strings.Contains(err.Error(), "one-shot") {
			t.Fatalf("%d events: Probe err = %v, want an error naming the one-shot layout", len(tr.Events), err)
		}
	}
}

// oneShotBytes renders tr in the one-shot layout: magic, the uvarint
// length of the JSON meta, the meta, the canonical uvarint event count,
// then the events.
func oneShotBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	meta, err := json.Marshal(tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.AppendUvarint(append([]byte{}, magic[:]...), uint64(len(meta)))
	out = binary.AppendUvarint(append(out, meta...), uint64(len(tr.Events)))
	prev := int32(0)
	for _, ev := range tr.Events {
		if out, err = appendEvent(out, ev, prev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Day
	}
	return out
}

// TestCodecRoundTripRandom generates random valid traces and round-trips.
func TestCodecRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		var evs []Event
		day := int32(0)
		var nodes int32
		for i := 0; i < 200; i++ {
			if rng.Intn(4) == 0 {
				day += int32(rng.Intn(3))
			}
			if nodes < 2 || rng.Intn(3) == 0 {
				evs = append(evs, Event{Kind: AddNode, Day: day, U: nodes, Origin: Origin(rng.Intn(3))})
				nodes++
			} else {
				u := int32(rng.Intn(int(nodes)))
				v := int32(rng.Intn(int(nodes)))
				if u == v {
					continue
				}
				evs = append(evs, Event{Kind: AddEdge, Day: day, U: u, V: v})
			}
		}
		roundTrip(t, &Trace{Events: evs, Meta: Summarize(evs)})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
