package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// liveTrace is an Encoder-backed trace file under test control: events go
// in via write/flush, and the file can be finalized or abandoned. It
// models the real live-writer flow — a finalized seed file reopened with
// OpenAppend — because a from-scratch Encoder's header stays poisoned
// (undecodable) until its Close, which the prober reports as an error.
type liveTrace struct {
	f   *os.File
	enc *Encoder
}

// extendLiveTrace writes a finalized file holding events[:k] and reopens
// it for append, returning the live writer.
func extendLiveTrace(t *testing.T, path string, events []Event, k int, seed int64, mergeDay int32) *liveTrace {
	t.Helper()
	encodePrefixToFile(t, events[:k], seed, mergeDay, path)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := OpenAppend(f)
	if err != nil {
		t.Fatal(err)
	}
	return &liveTrace{f: f, enc: enc}
}

func (w *liveTrace) write(t *testing.T, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if err := w.enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
}

func (w *liveTrace) flush(t *testing.T) {
	t.Helper()
	if err := w.enc.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (w *liveTrace) finalize(t *testing.T) {
	t.Helper()
	if err := w.enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// sealedUpTo returns the number of events before the first event of day
// (i.e. the sealed prefix length once day is the trailing day).
func sealedUpTo(events []Event, day int32) int {
	for i, ev := range events {
		if ev.Day >= day {
			return i
		}
	}
	return len(events)
}

// sealedMetaFor is the Meta a snapshot should carry when trailing day is
// in force: counters over the sealed prefix, Days = trailing day.
func sealedMetaFor(events []Event, trailing int32, seed int64) Meta {
	m := Summarize(events[:sealedUpTo(events, trailing)])
	m.Days = trailing
	m.Seed = seed
	return m
}

// TestTailProbeSealsAtDayBarriers follows a live writer event by event:
// after every flushed write, the snapshot's sealed day must be exactly
// one behind the trailing day, with Meta and event count matching the
// sealed prefix — and finalization seals the last day.
func TestTailProbeSealsAtDayBarriers(t *testing.T) {
	tr := synthTrace(200)
	path := filepath.Join(t.TempDir(), "live.trace")
	p := NewTailProbe(path)
	if _, err := p.Probe(); err == nil {
		t.Fatal("probe of a missing file should error")
	}

	k0 := sealedUpTo(tr.Events, 1) // seed file: day 0, finalized
	w := extendLiveTrace(t, path, tr.Events, k0, tr.Meta.Seed, tr.Meta.MergeDay)

	for i := k0; i < len(tr.Events); i++ {
		ev := tr.Events[i]
		w.write(t, ev)
		w.flush(t)
		s, err := p.Probe()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if s.Anomaly != nil {
			t.Fatalf("event %d: anomaly %v", i, s.Anomaly)
		}
		wantSealed := ev.Day - 1
		if s.SealedDay != wantSealed {
			t.Fatalf("event %d (day %d): SealedDay = %d, want %d", i, ev.Day, s.SealedDay, wantSealed)
		}
		if want := int64(sealedUpTo(tr.Events, ev.Day)); s.Events != want {
			t.Fatalf("event %d: sealed Events = %d, want %d", i, s.Events, want)
		}
		if s.FrontierEvents != int64(i+1) || s.FrontierDay != ev.Day {
			t.Fatalf("event %d: frontier = (%d, day %d), want (%d, day %d)",
				i, s.FrontierEvents, s.FrontierDay, i+1, ev.Day)
		}
		if s.Finalized {
			t.Fatalf("event %d: snapshot claims finalized mid-write", i)
		}
		if ev.Day > 0 {
			if want := sealedMetaFor(tr.Events, ev.Day, tr.Meta.Seed); s.Meta != want {
				t.Fatalf("event %d: Meta = %+v, want %+v", i, s.Meta, want)
			}
		}
		if i == len(tr.Events)/2 {
			src := s.Source()
			cur, err := src.Open()
			if err != nil {
				t.Fatal(err)
			}
			got := drainCursor(t, cur)
			cur.Close()
			sameEvents(t, "mid-write sealed replay", got, tr.Events[:s.Events])
		}
	}

	w.finalize(t)
	s, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Finalized || s.Anomaly != nil {
		t.Fatalf("after Close: Finalized=%v anomaly=%v", s.Finalized, s.Anomaly)
	}
	if s.SealedDay != tr.Meta.Days-1 || s.Events != int64(len(tr.Events)) {
		t.Fatalf("after Close: SealedDay=%d Events=%d, want %d, %d",
			s.SealedDay, s.Events, tr.Meta.Days-1, len(tr.Events))
	}
	if s.Meta != tr.Meta {
		t.Fatalf("after Close: Meta = %+v, want header %+v", s.Meta, tr.Meta)
	}
}

// TestTailProbeTornTailAndAnomaly: a partially flushed event is forgiven
// (the frontier holds, no anomaly) and is re-read once the writer
// completes it; genuinely corrupt tail bytes surface as Anomaly without
// disturbing the sealed prefix.
func TestTailProbeTornTailAndAnomaly(t *testing.T) {
	tr := synthTrace(100)
	path := filepath.Join(t.TempDir(), "torn.trace")
	p := NewTailProbe(path)

	k := sealedUpTo(tr.Events, 10)
	k2 := sealedUpTo(tr.Events, 12)
	w := extendLiveTrace(t, path, tr.Events, k, tr.Meta.Seed, tr.Meta.MergeDay)
	w.write(t, tr.Events[k:k2]...)
	w.flush(t)
	s, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.Anomaly != nil || s.SealedDay != tr.Events[k2-1].Day-1 {
		t.Fatalf("live probe: %+v", s)
	}
	base := *s

	// A torn write: the writer's buffer cut mid-event (a lone AddNode kind
	// byte). Appended through a second handle, so the encoder's own file
	// position still points at the cut — its next flush overwrites it, the
	// way a real writer's retry would.
	torn, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write([]byte{byte(AddNode)}); err != nil {
		t.Fatal(err)
	}
	torn.Close()

	s, err = p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.Anomaly != nil {
		t.Fatalf("torn tail reported as anomaly: %v", s.Anomaly)
	}
	if s.SealedDay != base.SealedDay || s.Events != base.Events || s.FrontierEvents != base.FrontierEvents {
		t.Fatalf("torn tail moved the frontier: %+v vs %+v", s, base)
	}

	// The writer completes the cut: its flush overwrites the torn byte
	// with the real events, and the probe re-reads from its held frontier.
	k3 := sealedUpTo(tr.Events, 13)
	w.write(t, tr.Events[k2:k3]...)
	w.flush(t)
	s, err = p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.Anomaly != nil || s.SealedDay != tr.Events[k3-1].Day-1 || s.FrontierEvents != int64(k3) {
		t.Fatalf("after completing the cut: %+v", s)
	}

	// Corruption a live writer cannot produce: an invalid kind byte plus
	// payload. Anomaly rides the snapshot; the sealed prefix stands.
	bad, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Write([]byte{0xee, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	bad.Close()
	s, err = p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.Anomaly == nil {
		t.Fatal("corrupt tail byte not reported as anomaly")
	}
	if s.SealedDay != tr.Events[k3-1].Day-1 || s.FrontierEvents != int64(k3) {
		t.Fatalf("anomaly moved the frontier: %+v", s)
	}
}

// eventLayout decodes a finalized trace file and returns the byte offset
// at which each event's encoding ends.
func eventLayout(t *testing.T, path string) (evs []Event, ends []int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hd, err := readHead(&blobHandle{ra: f}, int64(len(readAll(t, path))))
	if err != nil {
		t.Fatal(err)
	}
	start := hd.start
	cr := &countingReader{r: io.NewSectionReader(f, start, 1<<62)}
	br := bufio.NewReader(cr)
	dec := resumeDecoder(br, hd.count, 0)
	for {
		ev, ok, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return evs, ends
		}
		evs = append(evs, ev)
		ends = append(ends, start+cr.n-int64(br.Buffered()))
	}
}

// TestTailProbeTruncatedFinalDay is the torn-final-day regression sweep:
// a finalized trace truncated at EVERY byte offset from the final day's
// first byte through end-of-file must still report the last provably
// complete day — never an error, never a short sealed prefix, never a
// day that could still grow.
func TestTailProbeTruncatedFinalDay(t *testing.T) {
	tr := synthTrace(200)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	encodeToFile(t, tr, full)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	evs, ends := eventLayout(t, full)
	sameEvents(t, "layout decode", evs, tr.Events)

	lastDay := evs[len(evs)-1].Day
	firstLast := sealedUpTo(evs, lastDay) // index of final day's first event
	sealedEnd := ends[firstLast-1]        // byte boundary before the final day
	eventsEnd := ends[len(ends)-1]        // byte boundary after the last event

	path := filepath.Join(dir, "cut.trace")
	for off := sealedEnd; off < int64(len(raw)); off++ {
		if err := os.WriteFile(path, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewTailProbe(path).Probe()
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		// How many final-day events survive the cut whole?
		complete := 0
		for i := firstLast; i < len(ends) && ends[i] <= off; i++ {
			complete++
		}
		wantSealed, wantEvents := lastDay-1, int64(firstLast)
		if complete == 0 {
			// Not a single final-day event: the previous day has no
			// successor event and cannot be proven complete either.
			wantSealed, wantEvents = lastDay-2, int64(sealedUpTo(evs, lastDay-1))
		}
		if s.SealedDay != wantSealed || s.Events != wantEvents {
			t.Fatalf("cut at %d: SealedDay=%d Events=%d, want %d, %d",
				off, s.SealedDay, s.Events, wantSealed, wantEvents)
		}
		if s.Finalized {
			t.Fatalf("cut at %d: truncated file claims finalized", off)
		}
		// Cuts inside the event stream are indistinguishable from a live
		// writer and must not alarm; cuts inside the footer may.
		if off <= eventsEnd && s.Anomaly != nil {
			t.Fatalf("cut at %d: anomaly %v", off, s.Anomaly)
		}
	}

	// One representative cut: the sealed source replays the exact prefix.
	mid := (sealedEnd + eventsEnd) / 2
	if err := os.WriteFile(path, raw[:mid], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewTailProbe(path).Probe()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := s.Source().Open()
	if err != nil {
		t.Fatal(err)
	}
	got := drainCursor(t, cur)
	cur.Close()
	sameEvents(t, "truncated sealed replay", got, evs[:s.Events])
}

// TestTailSourceMatchesFileSource: every view of every container is the
// same data plane. For a flat file with and without its day index, and a
// segmented file with and without its footer, three views — the opened
// source, a tail snapshot of the finished file, and a snapshot of the
// file cut inside its event stream the way a writer mid-append leaves
// it — must replay, seek and count exactly like an in-memory slice of
// the events they cover, at every day.
func TestTailSourceMatchesFileSource(t *testing.T) {
	tr := synthTrace(400)
	evs := tr.Events
	containers := []struct {
		name      string
		write     func(t *testing.T, path string)
		indexed   bool // the opened source has a day index
		finalized bool // a probe of the finished file reports Finalized
	}{
		{"flat", func(t *testing.T, path string) { encodeToFile(t, tr, path) }, true, true},
		{"flat-indexless", func(t *testing.T, path string) {
			encodeToFile(t, tr, path)
			writeFile(t, path, stripFooter(t, path))
		}, false, false},
		{"segmented", func(t *testing.T, path string) { encodeSegToFile(t, tr, path, true) }, true, true},
		{"segmented-footerless", func(t *testing.T, path string) {
			encodeSegToFile(t, tr, path, true)
			writeFile(t, path, stripFooter(t, path))
		}, false, false},
	}
	for _, c := range containers {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path, cut := filepath.Join(dir, "full"), filepath.Join(dir, "cut")
			c.write(t, path)
			data := readAll(t, path)
			if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}

			opened, err := OpenTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if opened.Meta() != tr.Meta || opened.Events() != uint64(len(evs)) {
				t.Fatalf("opened: meta %+v, %d events", opened.Meta(), opened.Events())
			}
			if (opened.Index() != nil) != c.indexed {
				t.Fatalf("opened: indexed = %v, want %v", opened.Index() != nil, c.indexed)
			}
			full, err := NewTailProbe(path).Probe()
			if err != nil {
				t.Fatal(err)
			}
			if full.Finalized != c.finalized || full.Anomaly != nil {
				t.Fatalf("finished-file snapshot: %+v", full)
			}
			if full.Finalized && full.Source().Meta() != opened.Meta() {
				t.Fatalf("meta: tail %+v, file %+v", full.Source().Meta(), opened.Meta())
			}
			mid, err := NewTailProbe(cut).Probe()
			if err != nil {
				t.Fatal(err)
			}
			if mid.Finalized || mid.Events <= 0 || mid.Events >= int64(len(evs)) {
				t.Fatalf("mid-write snapshot: %+v", mid)
			}

			views := []struct {
				name    string
				src     MetaSource
				n       int64
				indexed bool
			}{
				{"opened", opened, int64(len(evs)), c.indexed},
				{"finished-tail", full.Source(), full.Events, true},
				{"mid-write-tail", mid.Source(), mid.Events, true},
			}
			for _, v := range views {
				if v.name != "opened" && int(v.n) != sealedUpTo(evs, v.src.Meta().Days) {
					t.Fatalf("%s: %d events do not end at a sealed day barrier", v.name, v.n)
				}
				ref := SliceSource(evs[:v.n])
				sameEvents(t, v.name+" Open", drain(t, v.src), ref)
				for day := int32(0); day <= tr.Meta.Days+1; day++ {
					cur, err := v.src.OpenAt(day)
					if err != nil {
						t.Fatal(err)
					}
					got := drainCursor(t, cur)
					cur.Close()
					sameEvents(t, fmt.Sprintf("%s OpenAt(%d)", v.name, day), got, suffixFrom(ref, day))

					n, ok := EventsThrough(v.src, day)
					want, _ := EventsThrough(ref, day)
					if ok != v.indexed || (ok && n != want) {
						t.Fatalf("%s EventsThrough(%d) = (%d,%v), want (%d,%v)", v.name, day, n, ok, want, v.indexed)
					}
				}
			}
		})
	}
}

// TestTailProbeHeaderDaysBelowStream: a finalized header whose day count
// stops short of the stream's last day vouches for neither the footer's
// index nor the final day, in either container. The probe decodes
// instead, seals through the day before the last one it saw, and its
// source never replays an event past the sealed day.
func TestTailProbeHeaderDaysBelowStream(t *testing.T) {
	tr := synthTrace(129)
	last := tr.Meta.Days - 1
	for _, c := range []struct {
		name  string
		mag   [4]byte
		write func(path string)
	}{
		{"flat", magic, func(path string) { encodeToFile(t, tr, path) }},
		{"segmented", segMagic, func(path string) { encodeSegToFile(t, tr, path, true) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.name)
			c.write(path)
			short := tr.Meta
			short.Days -= 10
			hdr, err := renderFixedHeader(c.mag, short, uint64(len(tr.Events)), false)
			if err != nil {
				t.Fatal(err)
			}
			data := readAll(t, path)
			copy(data, hdr)
			writeFile(t, path, data)

			s, err := NewTailProbe(path).Probe()
			if err != nil {
				t.Fatal(err)
			}
			if s.Finalized || s.SealedDay != last-1 || s.Events != int64(sealedUpTo(tr.Events, last)) {
				t.Fatalf("Finalized=%v SealedDay=%d Events=%d, want false, %d, %d",
					s.Finalized, s.SealedDay, s.Events, last-1, sealedUpTo(tr.Events, last))
			}
			sameEvents(t, "sealed replay", drain(t, s.Source()), tr.Events[:s.Events])
		})
	}
}

// TestTailProbeTrustedThenAppended: the probe's O(1) trust of an
// already-finalized file must survive the file being reopened for append
// — both when the appended events continue the file's final day (the
// sealed boundary lies in the never-decoded prefix and forces a rescan)
// and when they start a new day (the trusted frontier itself seals).
func TestTailProbeTrustedThenAppended(t *testing.T) {
	tr := synthTrace(100)
	evs := tr.Events

	t.Run("same-day", func(t *testing.T) {
		// Split mid-day: k2 extends the same trailing day, k3 starts the
		// next one.
		k := sealedUpTo(evs, 10) + 3
		d := evs[k-1].Day
		if evs[k].Day != d {
			t.Fatal("bad fixture: split is not mid-day")
		}
		k2 := sealedUpTo(evs, d+1)
		path := filepath.Join(t.TempDir(), "sameday.trace")
		encodePrefixToFile(t, evs[:k], tr.Meta.Seed, tr.Meta.MergeDay, path)

		p := NewTailProbe(path)
		s, err := p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if !s.Finalized || s.Events != int64(k) {
			t.Fatalf("trust probe: %+v", s)
		}

		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := OpenAppend(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs[k:k2] {
			if err := enc.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		s, err = p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if s.SealedDay != d-1 || s.Events != int64(sealedUpTo(evs, d)) || s.Finalized {
			t.Fatalf("after same-day append: %+v (want sealed day %d)", s, d-1)
		}
		// The next day's first event seals the extended day d whole.
		if err := enc.Write(evs[k2]); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		s, err = p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		if s.SealedDay != d || s.Events != int64(k2) {
			t.Fatalf("after barrier: %+v (want sealed day %d, events %d)", s, d, k2)
		}
		cur, err := s.Source().Open()
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(t, cur)
		cur.Close()
		sameEvents(t, "rescanned sealed replay", got, evs[:k2])
		f.Close()
	})

	t.Run("new-day", func(t *testing.T) {
		k := sealedUpTo(evs, 12)
		path := filepath.Join(t.TempDir(), "newday.trace")
		encodePrefixToFile(t, evs[:k], tr.Meta.Seed, tr.Meta.MergeDay, path)

		p := NewTailProbe(path)
		if _, err := p.Probe(); err != nil {
			t.Fatal(err)
		}

		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := OpenAppend(f)
		if err != nil {
			t.Fatal(err)
		}
		k2 := sealedUpTo(evs, 14)
		for _, ev := range evs[k:k2] {
			if err := enc.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		s, err := p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		last := evs[k2-1].Day
		if s.SealedDay != last-1 || s.Events != int64(sealedUpTo(evs, last)) {
			t.Fatalf("after new-day append: %+v (want sealed day %d)", s, last-1)
		}
		// Finalize and confirm the probe converges on the header meta.
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s, err = p.Probe()
		if err != nil {
			t.Fatal(err)
		}
		want := Summarize(evs[:k2])
		want.Seed = tr.Meta.Seed
		if !s.Finalized || s.Meta != want {
			t.Fatalf("after finalize: %+v, want meta %+v", s, want)
		}
	})
}

// TestTailProbeFileReplaced: swapping a different file in at the same
// path (new inode) resets the probe cleanly.
func TestTailProbeFileReplaced(t *testing.T) {
	dir := t.TempDir()
	a, b := synthTrace(80), synthTrace(200)
	path := filepath.Join(dir, "live.trace")
	other := filepath.Join(dir, "other.trace")
	encodeToFile(t, a, path)
	encodeToFile(t, b, other)

	p := NewTailProbe(path)
	s, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.SealedDay != a.Meta.Days-1 || s.Events != int64(len(a.Events)) {
		t.Fatalf("first file: %+v", s)
	}
	if err := os.Rename(other, path); err != nil {
		t.Fatal(err)
	}
	s, err = p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if s.SealedDay != b.Meta.Days-1 || s.Events != int64(len(b.Events)) || !s.Finalized {
		t.Fatalf("replaced file: %+v", s)
	}
}
