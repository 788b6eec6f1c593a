package serve

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestCloseDrainsInFlightRefresh: a refresh that has already started when
// Close is called completes un-cancelled and publishes its snapshot;
// Close returns only after it has. Refreshes arriving after Close get
// ErrClosed.
func TestCloseDrainsInFlightRefresh(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.trace")
	copyFile(t, fxBase, live)
	srv := newTestServer(t, live, "")

	// Slow the warm pass down so Close provably overlaps it. The stub
	// fails the test if the pass's context dies while it sleeps — that
	// would mean Close cancelled work it promised to drain.
	inner := srv.runFigures
	started := make(chan struct{})
	srv.runFigures = func(ctx context.Context, src trace.MetaSource, cfg core.Config, from *core.ResumeHandle, figures ...string) (*core.Result, *core.ResumeHandle, error) {
		close(started)
		select {
		case <-ctx.Done():
			t.Error("in-flight refresh cancelled by Close")
			return nil, nil, ctx.Err()
		case <-time.After(300 * time.Millisecond):
		}
		return inner(ctx, src, cfg, from, figures...)
	}

	replaceFile(t, fxExt, live)
	refreshed := make(chan error, 1)
	go func() {
		_, _, err := srv.Refresh(context.Background())
		refreshed <- err
	}()
	<-started

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a refresh was still applying")
	case <-time.After(50 * time.Millisecond):
	}

	if err := <-refreshed; err != nil {
		t.Fatalf("drained refresh failed: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the refresh completed")
	}
	if snap := srv.Snapshot(); snap.Day != fxExtDays-1 {
		t.Fatalf("drained refresh did not publish: day %d, want %d", snap.Day, fxExtDays-1)
	}

	if _, _, err := srv.Refresh(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Refresh after Close: err = %v, want ErrClosed", err)
	}
	src, err := trace.OpenTrace(live)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.AdvanceTo(context.Background(), src); !errors.Is(err, ErrClosed) {
		t.Fatalf("AdvanceTo after Close: err = %v, want ErrClosed", err)
	}
	// Reads keep working off the last published snapshot.
	if rec := get(t, srv.Handler(), "/figures/fig1a"); rec.Code != 200 {
		t.Fatalf("read after Close: status %d", rec.Code)
	}
}

// TestAdvanceToCarriesUnchangedPanels: a day advance re-keys cached
// encodings of panels whose tables did not change, so they are served
// without re-encoding, while changed panels are recomputed under the new
// day key.
func TestAdvanceToCarriesUnchangedPanels(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.trace")
	copyFile(t, fxBase, live)
	srv := newTestServer(t, live, "")
	h := srv.Handler()

	// Warm the cache with every panel the snapshot serves.
	for _, id := range srv.Snapshot().Res.Figures() {
		if rec := get(t, h, "/figures/"+id); rec.Code != 200 {
			t.Fatalf("%s: status %d", id, rec.Code)
		}
	}

	replaceFile(t, fxExt, live)
	advanced, day, err := srv.Refresh(context.Background())
	if err != nil || !advanced || day != fxExtDays-1 {
		t.Fatalf("refresh: advanced=%v day=%d err=%v", advanced, day, err)
	}
	snap := srv.Snapshot()
	if snap.Carried == 0 {
		t.Fatal("no panels carried across the advance (expected at least the early-horizon distributions)")
	}
	stats := srv.cache.Stats()
	if stats.Carried == 0 {
		t.Fatal("cache carried no entries")
	}

	// Every carried panel must now hit the cache under the NEW day key
	// and serve bytes identical to a from-zero run over the extension.
	_, extRes := referenceResults(t)
	hits := 0
	for _, id := range snap.Res.Figures() {
		rec := get(t, h, "/figures/"+id)
		if rec.Code != 200 {
			t.Fatalf("%s after advance: status %d", id, rec.Code)
		}
		if rec.Header().Get("X-Cache") == "hit" {
			hits++
		}
		if want := encodeFigure(t, extRes, id, core.FormatTSV); !bytesEqual(rec.Body.Bytes(), want) {
			t.Fatalf("%s after advance: served bytes differ from from-zero reference", id)
		}
	}
	if hits < snap.Carried {
		t.Fatalf("only %d cache hits after advance, %d panels were carried", hits, snap.Carried)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestColdComputeUsesSnapshotSource: a custom-δ request after the file
// grew — but before any refresh — must compute from the snapshot's own
// source, not the file's new content: the response is keyed and stamped
// with the snapshot's day.
func TestColdComputeUsesSnapshotSource(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.trace")
	copyFile(t, fxBase, live)
	srv := newTestServer(t, live, "")

	// Grow the file out from under the published snapshot.
	replaceFile(t, fxExt, live)

	cfg := serveTestConfig()
	cfg.DeltaSweep = []float64{0.05}
	src, err := trace.OpenTrace(fxBase)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := core.RunFigures(nil, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes.Seal()

	rec := get(t, srv.Handler(), "/figures/fig4a?delta=0.05")
	if rec.Code != 200 {
		t.Fatalf("cold request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Day"); got != "269" {
		t.Fatalf("cold request served day %s, want the snapshot's 269", got)
	}
	if want := encodeFigure(t, wantRes, "fig4a", core.FormatTSV); !bytesEqual(rec.Body.Bytes(), want) {
		t.Fatal("cold δ response differs from a from-zero run over the snapshot's days")
	}
}
