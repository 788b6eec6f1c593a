package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// quietLog drops records below warn so test output stays readable.
func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer boots a server over tracePath with the test-scale config.
func newTestServer(t testing.TB, tracePath, checkpointDir string) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(), Options{
		TracePath:     tracePath,
		CheckpointDir: checkpointDir,
		Config:        serveTestConfig(),
		Log:           quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// get performs one request against the handler in-process.
func get(t testing.TB, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

func TestServeWarmFigures(t *testing.T) {
	baseRes, _ := referenceResults(t)
	srv := newTestServer(t, fxBase, "")
	h := srv.Handler()

	if d := srv.Snapshot().Day; d != fxBaseDays-1 {
		t.Fatalf("published day = %d, want %d", d, fxBaseDays-1)
	}

	t.Run("tsv matches a quiesced from-zero run", func(t *testing.T) {
		for _, id := range baseRes.Figures() {
			rec := get(t, h, "/figures/"+id)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", id, rec.Code, rec.Body.String())
			}
			if want := encodeFigure(t, baseRes, id, core.FormatTSV); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: served TSV differs from the from-zero run", id)
			}
			if got := rec.Header().Get("Content-Type"); got != core.FormatTSV.ContentType() {
				t.Errorf("%s: Content-Type = %q", id, got)
			}
			if got := rec.Header().Get("X-Trace-Day"); got != strconv.Itoa(fxBaseDays-1) {
				t.Errorf("%s: X-Trace-Day = %q", id, got)
			}
		}
	})

	t.Run("repeat fetch is a cache hit", func(t *testing.T) {
		first := get(t, h, "/figures/fig1a?format=json")
		if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
			t.Fatalf("first fetch: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
		}
		second := get(t, h, "/figures/fig1a?format=json")
		if second.Header().Get("X-Cache") != "hit" {
			t.Fatalf("second fetch: X-Cache = %q, want hit", second.Header().Get("X-Cache"))
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatal("hit served different bytes than the miss")
		}
		if want := encodeFigure(t, baseRes, "fig1a", core.FormatJSON); !bytes.Equal(first.Body.Bytes(), want) {
			t.Fatal("served JSON differs from the from-zero run")
		}
	})

	t.Run("warm delta equal to the grid serves from the snapshot", func(t *testing.T) {
		rec := get(t, h, "/figures/fig4a?delta=0.01,0.1")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if want := encodeFigure(t, baseRes, "fig4a", core.FormatTSV); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Error("grid-δ request did not serve the warm panel")
		}
	})

	t.Run("error statuses", func(t *testing.T) {
		for _, tc := range []struct {
			target string
			want   int
		}{
			{"/figures/fig9z", http.StatusNotFound},
			{"/figures/fig1a?format=xml", http.StatusBadRequest},
			{"/figures/fig4a?delta=bogus", http.StatusBadRequest},
			{"/figures/fig4a?delta=-0.5", http.StatusBadRequest},
		} {
			if rec := get(t, h, tc.target); rec.Code != tc.want {
				t.Errorf("%s: status %d, want %d", tc.target, rec.Code, tc.want)
			}
		}
	})

	t.Run("healthz and statz", func(t *testing.T) {
		rec := get(t, h, "/healthz")
		var hz struct {
			Status  string `json:"status"`
			LastDay int32  `json:"last_day"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		if hz.Status != "ok" || hz.LastDay != fxBaseDays-1 {
			t.Fatalf("healthz = %+v", hz)
		}

		rec = get(t, h, "/statz")
		var st map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st["requests"].(float64) <= 0 {
			t.Error("statz reports zero requests after several")
		}
		cache := st["cache"].(map[string]any)
		if cache["hits"].(float64) < 1 {
			t.Errorf("statz cache hits = %v, want >= 1", cache["hits"])
		}
	})

	t.Run("figure list", func(t *testing.T) {
		rec := get(t, h, "/figures")
		var list struct {
			Figures []string `json:"figures"`
			LastDay int32    `json:"last_day"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Figures) != len(baseRes.Figures()) || list.LastDay != fxBaseDays-1 {
			t.Fatalf("list = %+v, want %d figures at day %d", list, len(baseRes.Figures()), fxBaseDays-1)
		}
	})
}

// TestServeColdDeltaSingleFlight pins the cache's headline guarantee at
// the HTTP layer: a burst of concurrent requests for the same uncached
// custom-δ panel — the expensive kind, each a real plan execution — runs
// exactly one plan.
func TestServeColdDeltaSingleFlight(t *testing.T) {
	srv := newTestServer(t, fxBase, "")
	h := srv.Handler()

	// Count plan executions from here on; the warm load already happened.
	var coldRuns atomic.Int64
	inner := srv.runFigures
	srv.runFigures = func(ctx context.Context, src trace.MetaSource, cfg core.Config, from *core.ResumeHandle, figures ...string) (*core.Result, *core.ResumeHandle, error) {
		coldRuns.Add(1)
		if cfg.CheckpointDir != "" || cfg.Resume || from != nil {
			t.Error("cold plan reached the warm checkpoint plane")
		}
		return inner(ctx, src, cfg, from, figures...)
	}

	const callers = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	codes := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, h, "/figures/fig4a?delta=0.02,0.08")
			bodies[i], codes[i] = rec.Body.Bytes(), rec.Code
		}(i)
	}
	wg.Wait()

	if n := coldRuns.Load(); n != 1 {
		t.Fatalf("%d concurrent identical cold requests ran %d plans, want exactly 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d served different bytes", i)
		}
	}

	// The panel is cached now: another fetch is a hit, still one plan run.
	if rec := get(t, h, "/figures/fig4a?delta=0.02,0.08"); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat cold-δ fetch: X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	// δ is irrelevant to non-sweep panels: this stays warm, no plan run.
	if rec := get(t, h, "/figures/fig1a?delta=0.02,0.08"); rec.Code != http.StatusOK {
		t.Fatalf("warm panel with custom δ: status %d", rec.Code)
	}
	if n := coldRuns.Load(); n != 1 {
		t.Fatalf("follow-up fetches ran %d extra plans", n-1)
	}
}

// TestServeRefreshAdvances pins the ingest path: replacing the trace file
// with a longer encoding and POSTing /refresh publishes the new last day,
// resumes from the warm pass's end-of-run checkpoint, invalidates stale
// cache entries, and serves tables bit-identical to a from-zero run over
// the grown trace.
func TestServeRefreshAdvances(t *testing.T) {
	baseRes, extRes := referenceResults(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "live.trace")
	copyFile(t, fxBase, tracePath)
	srv := newTestServer(t, tracePath, filepath.Join(dir, "ckpt"))
	h := srv.Handler()

	if rec := get(t, h, "/figures/fig1a"); !bytes.Equal(rec.Body.Bytes(), encodeFigure(t, baseRes, "fig1a", core.FormatTSV)) {
		t.Fatal("pre-refresh panel differs from the base from-zero run")
	}

	// No growth: refresh is a no-op.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/refresh", nil))
	var rr struct {
		Advanced bool  `json:"advanced"`
		LastDay  int32 `json:"last_day"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Advanced || rr.LastDay != fxBaseDays-1 {
		t.Fatalf("no-op refresh = %+v", rr)
	}

	// The trace gains 30 days via an atomic swap, as a writer would do.
	replaceFile(t, fxExt, tracePath)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/refresh", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Advanced || rr.LastDay != fxExtDays-1 {
		t.Fatalf("refresh after growth = %+v, want advanced to day %d", rr, fxExtDays-1)
	}
	snap := srv.Snapshot()
	if snap.ResumedFrom != fxBaseDays-1 {
		t.Errorf("refresh resumed from day %d, want %d (the warm pass's end-of-run checkpoint)", snap.ResumedFrom, fxBaseDays-1)
	}

	// Post-refresh responses carry the new day and the new tables; the
	// old generation's cache entries can never be served again.
	for _, id := range extRes.Figures() {
		rec := get(t, h, "/figures/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Trace-Day"); got != strconv.Itoa(fxExtDays-1) {
			t.Errorf("%s: X-Trace-Day = %q after refresh", id, got)
		}
		if want := encodeFigure(t, extRes, id, core.FormatTSV); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: post-refresh panel differs from the extended from-zero run", id)
		}
	}
}
