package gen

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestGenerateStreamMatchesGenerate: the emit-mode generator must be
// byte-identical to the materializing one — same events, same meta — and
// a merged scenario must stream the 5Q import correctly.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 200 // past the day-150 merge, fast enough for a unit test

	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []trace.Event
	meta, err := GenerateStream(cfg, func(ev trace.Event) error {
		streamed = append(streamed, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta != tr.Meta {
		t.Fatalf("meta: stream %+v != slice %+v", meta, tr.Meta)
	}
	if len(streamed) != len(tr.Events) {
		t.Fatalf("events: stream %d != slice %d", len(streamed), len(tr.Events))
	}
	for i := range streamed {
		if streamed[i] != tr.Events[i] {
			t.Fatalf("event %d: stream %+v != slice %+v", i, streamed[i], tr.Events[i])
		}
	}
}

// TestGenerateToFileRoundTrip: stream-generate to disk, replay via
// FileSource, and compare against the in-memory path event by event.
func TestGenerateToFileRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 200

	path := filepath.Join(t.TempDir(), "gen.trace")
	meta, err := GenerateToFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta != tr.Meta {
		t.Fatalf("meta: file %+v != slice %+v", meta, tr.Meta)
	}

	fs, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Meta() != tr.Meta {
		t.Fatalf("header meta %+v != %+v", fs.Meta(), tr.Meta)
	}
	cur, err := fs.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := range tr.Events {
		ev, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("file stream ended at event %d of %d", i, len(tr.Events))
		}
		if ev != tr.Events[i] {
			t.Fatalf("event %d: file %+v != slice %+v", i, ev, tr.Events[i])
		}
	}
	if _, ok, err := cur.Next(); err != nil || ok {
		t.Fatalf("file stream has trailing events (ok=%v err=%v)", ok, err)
	}
}

// TestGenerateStreamEmitError: a failing sink aborts the run and
// surfaces the sink's error; GenerateToFile removes the partial file.
func TestGenerateStreamEmitError(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 60
	cfg.Merge = nil
	sentinel := os.ErrClosed
	n := 0
	_, err := GenerateStream(cfg, func(trace.Event) error {
		n++
		if n > 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want the sink's sentinel", err)
	}
}
