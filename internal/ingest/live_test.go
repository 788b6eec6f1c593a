package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/trace"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// liveGenConfig is a shrunk generator scenario for the live loop: ~70
// initial days holding the merge (day 40), small enough that a warm pass
// takes well under a second.
func liveGenConfig(days int32) gen.Config {
	c := gen.SmallConfig()
	c.Days = days
	c.MaxNodes = 10_000
	c.Arrival.Base = 20
	c.Merge.Day = 40
	c.Merge.FiveQStart = 15
	return c
}

// liveCoreConfig mirrors serve's test scale-down at the shrunk horizon.
// SizeDistDays sit on the day-20+6k snapshot grid inside the initial
// horizon so every intermediate sealed prefix runs the same stage set
// (stable fingerprint → checkpoint resume works at every advance).
func liveCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha.Interval = 1500
	cfg.Alpha.MinEdges = 2000
	cfg.Alpha.PolyDegree = 3
	cfg.Community.SnapshotEvery = 6
	cfg.Community.SizeDistDays = []int32{26, 44, 62}
	cfg.DeltaSweep = []float64{0.01, 0.1}
	cfg.PathEvery = 20
	cfg.PathSources = 20
	cfg.ClusteringSamples = 200
	cfg.CheckpointEvery = 30
	return cfg
}

// TestLiveFollowLoop is the ingest plane's acceptance test: a writer
// appends three day-batches to a trace while a follower daemon tails it
// and serves figures throughout; when the dust settles, every served
// panel must be bit-identical to a from-zero batch run over the final
// file. Runs under -race in CI, so it also holds the tailer, applier,
// server and HTTP readers to the memory model.
func TestLiveFollowLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.trace")
	if _, err := gen.GenerateToFile(liveGenConfig(70), path); err != nil {
		t.Fatal(err)
	}

	tailer := NewTailer(Options{Path: path, Poll: 2 * time.Millisecond, Log: quietLog()})
	srv, err := serve.NewServer(context.Background(), serve.Options{
		TracePath:     path,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Config:        liveCoreConfig(),
		Log:           quietLog(),
		Open:          tailer.OpenSealed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if day := srv.Snapshot().Day; day != 69 {
		t.Fatalf("warm load published day %d, want 69", day)
	}
	applier := NewApplier(srv, tailer)
	srv.RegisterStatz("ingest", applier.Statz)

	ctx, cancel := context.WithCancel(context.Background())
	followDone := make(chan error, 1)
	go func() { followDone <- applier.Run(ctx) }()

	// Concurrent readers hammer the HTTP surface for the whole run.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var stopReaders atomic.Bool
	var readers sync.WaitGroup
	ids := []string{"fig1a", "fig2a", "fig4a", "fig5a", "fig9a"}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; !stopReaders.Load(); i++ {
				target := ts.URL + "/figures/" + ids[(i+r)%len(ids)]
				if i%7 == 0 {
					target = ts.URL + "/statz"
				}
				resp, err := http.Get(target)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 && resp.StatusCode != 404 {
					t.Errorf("reader: %s: status %d", target, resp.StatusCode)
					return
				}
			}
		}(r)
	}

	// The writer: three in-place extensions, each finalized; the follower
	// also sees intermediate sealed days while each append is in flight.
	for _, horizon := range []int32{90, 110, 130} {
		if _, err := gen.AppendToFile(liveGenConfig(horizon), path); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for srv.Snapshot().Day != horizon-1 {
			if time.Now().After(deadline) {
				t.Fatalf("follower never published day %d (at %d)", horizon-1, srv.Snapshot().Day)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	stats := applier.Statz().(ApplyStats)
	if stats.Applies < 3 {
		t.Fatalf("only %d applies across 3 extensions", stats.Applies)
	}
	if stats.PublishedDay != 129 || stats.DaysBehind != 0 {
		t.Fatalf("final ingest stats: %+v", stats)
	}

	// /statz carries the registered ingest section.
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := statz["ingest"]; !ok {
		t.Fatal("/statz has no ingest section")
	}

	// The bar: every served panel is bit-identical to a from-zero batch
	// run over the final file — the live path added nothing and lost
	// nothing.
	refSrc, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := liveCoreConfig()
	ref, err := core.RunFigures(nil, refSrc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Seal()
	for _, id := range core.AllFigures {
		refTab, refErr := ref.Figure(id)
		resp, err := http.Get(ts.URL + "/figures/" + id + "?format=tsv")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if refErr != nil {
			if resp.StatusCode == 200 {
				t.Errorf("%s: served 200, reference errors with %v", id, refErr)
			}
			continue
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d, want 200", id, resp.StatusCode)
			continue
		}
		var want bytes.Buffer
		if err := refTab.Write(&want, core.FormatTSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: served bytes differ from from-zero batch run", id)
		}
	}

	stopReaders.Store(true)
	readers.Wait()
	cancel()
	if err := <-followDone; err != context.Canceled {
		t.Fatalf("follow loop: %v", err)
	}
}

// TestTailerRejectsRegression: replacing the trace with a shorter one is
// refused by the tailer's monotonicity guard instead of being handed to
// a server that has already published further.
func TestTailerRejectsRegression(t *testing.T) {
	dir := t.TempDir()
	long := filepath.Join(dir, "long.trace")
	short := filepath.Join(dir, "short.trace")
	if _, err := gen.GenerateToFile(liveGenConfig(50), long); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.GenerateToFile(liveGenConfig(45), short); err != nil {
		t.Fatal(err)
	}
	tailer := NewTailer(Options{Path: long, Log: quietLog()})
	snap, err := tailer.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SealedDay != 49 {
		t.Fatalf("sealed day %d, want 49", snap.SealedDay)
	}
	copyOver(t, short, long)
	if _, err := tailer.Probe(); err == nil {
		t.Fatal("probe accepted a sealed-day regression")
	}
}

func copyOver(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFollowStatsCountAppliedEvents: /statz's applied_events and
// events_per_sec count only the events an advance added. The first
// followed advance after the warm load is the case that matters: its
// baseline is the published snapshot, which the applier did not publish.
func TestFollowStatsCountAppliedEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.trace")
	base, err := gen.GenerateToFile(liveGenConfig(70), path)
	if err != nil {
		t.Fatal(err)
	}
	tailer := NewTailer(Options{Path: path, Poll: 2 * time.Millisecond, Log: quietLog()})
	srv, err := serve.NewServer(context.Background(), serve.Options{
		TracePath: path,
		Config:    liveCoreConfig(),
		Log:       quietLog(),
		Open:      tailer.OpenSealed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	grown, err := gen.AppendToFile(liveGenConfig(90), path)
	if err != nil {
		t.Fatal(err)
	}

	// The file is finalized before the follow loop starts, so one apply
	// publishes all 20 new days.
	applier := NewApplier(srv, tailer)
	ctx, cancel := context.WithCancel(context.Background())
	followDone := make(chan error, 1)
	go func() { followDone <- applier.Run(ctx) }()
	deadline := time.Now().Add(60 * time.Second)
	for srv.Snapshot().Day != 89 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never published day 89 (at %d)", srv.Snapshot().Day)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-followDone

	stats := applier.Statz().(ApplyStats)
	want := grown.Nodes + grown.Edges - (base.Nodes + base.Edges)
	if stats.Applies != 1 || stats.AppliedEvents != want {
		t.Fatalf("applies %d, applied_events %d; want 1 apply of %d events", stats.Applies, stats.AppliedEvents, want)
	}
	if got := stats.EventsPerSec * stats.LastApply.Seconds(); math.Abs(got-float64(want)) > 1e-6*float64(want) {
		t.Fatalf("events_per_sec × last apply = %.1f events, want %d", got, want)
	}
}

// TestRefreshThroughTailer: a server whose every open goes through
// Tailer.OpenSealed advances on Refresh after the trace file is
// atomically replaced by a longer encoding, flat or segmented, and
// every table equals a from-zero run over the longer file. A finalized
// segmented snapshot keeps the frame-cache identity OpenTrace gives the
// same file, so a cold custom-δ plan over it reads cached frames.
func TestRefreshThroughTailer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(gen.Config, string) (trace.Meta, error)
	}{
		{"flat", gen.GenerateToFile},
		{"segmented", gen.GenerateToSegFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "live.trace")
			longer := filepath.Join(dir, "longer.trace")
			if _, err := tc.write(liveGenConfig(70), path); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.write(liveGenConfig(90), longer); err != nil {
				t.Fatal(err)
			}
			tailer := NewTailer(Options{Path: path, Log: quietLog()})
			srv, err := serve.NewServer(context.Background(), serve.Options{
				TracePath:     path,
				CheckpointDir: filepath.Join(dir, "ckpt"),
				Config:        liveCoreConfig(),
				Log:           quietLog(),
				Open:          tailer.OpenSealed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if day := srv.Snapshot().Day; day != 69 {
				t.Fatalf("warm load published day %d, want 69", day)
			}

			if err := os.Rename(longer, path); err != nil {
				t.Fatal(err)
			}
			advanced, day, err := srv.Refresh(context.Background())
			if err != nil || !advanced || day != 89 {
				t.Fatalf("refresh: advanced=%v day=%d err=%v; want an advance to 89", advanced, day, err)
			}

			refSrc, err := trace.OpenTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.RunFigures(nil, refSrc, liveCoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			ref.Seal()
			res := srv.Snapshot().Res
			for _, id := range ref.Figures() {
				want, _ := ref.Figure(id)
				got, err := res.Figure(id)
				if err != nil || !got.Equal(want) {
					t.Errorf("%s: refreshed table differs from the from-zero run (err %v)", id, err)
				}
			}

			if tc.name != "segmented" {
				return
			}
			h := srv.Handler()
			for i, delta := range []string{"0.02,0.08", "0.03"} {
				before := trace.ReadFrameCacheStats().Hits
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/fig4a?delta="+delta, nil))
				if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
					t.Fatalf("cold fig4a?delta=%s: status %d, X-Cache %q", delta, rec.Code, rec.Header().Get("X-Cache"))
				}
				if hits := trace.ReadFrameCacheStats().Hits; i == 1 && hits <= before {
					t.Fatalf("second cold plan read no cached frame (hits %d -> %d)", before, hits)
				}
			}
		})
	}
}
