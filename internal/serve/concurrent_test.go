package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestServeConcurrentReadersDuringRefresh is the PR's concurrency
// acceptance gate (run under -race in CI): readers hammer the figure
// endpoints while an ingest pass advances the trace by 30 days and swaps
// the published snapshot. Every response — before, during, and after the
// swap — must be bit-identical to a quiesced from-zero run over the
// trace generation named by its X-Trace-Day header. No locks on the read
// path, no torn panels, no response mixing days. The refresh continues
// from the warm load's end state in memory, the path every ingest advance
// takes.
func TestServeConcurrentReadersDuringRefresh(t *testing.T) {
	baseRes, extRes := referenceResults(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "live.trace")
	copyFile(t, fxBase, tracePath)
	srv := newTestServer(t, tracePath, filepath.Join(dir, "ckpt"))
	h := srv.Handler()

	// The per-generation references, keyed the same way responses name
	// their generation. Encoding is done up front: the reader loop must
	// stay allocation-light so requests actually interleave with publish.
	want := map[string]map[string][]byte{
		strconv.Itoa(fxBaseDays - 1): {},
		strconv.Itoa(fxExtDays - 1):  {},
	}
	ids := baseRes.Figures()
	for _, id := range ids {
		want[strconv.Itoa(fxBaseDays-1)][id] = encodeFigure(t, baseRes, id, core.FormatTSV)
		want[strconv.Itoa(fxExtDays-1)][id] = encodeFigure(t, extRes, id, core.FormatTSV)
	}

	var (
		stop       atomic.Bool
		served     [2]atomic.Int64 // [0] base-day responses, [1] ext-day responses
		wg         sync.WaitGroup
		errMu      sync.Mutex
		firstErr   error
		reportOnce sync.Once
	)
	fail := func(err error) {
		reportOnce.Do(func() {
			errMu.Lock()
			firstErr = err
			errMu.Unlock()
			stop.Store(true)
		})
	}
	const readers = 4
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				id := ids[i%len(ids)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/figures/"+id, nil))
				if rec.Code != http.StatusOK {
					fail(fmt.Errorf("%s: status %d: %s", id, rec.Code, rec.Body.String()))
					return
				}
				day := rec.Header().Get("X-Trace-Day")
				ref, ok := want[day]
				if !ok {
					fail(fmt.Errorf("%s: response from unknown generation day %q", id, day))
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), ref[id]) {
					fail(fmt.Errorf("%s at day %s: served bytes differ from the quiesced from-zero run", id, day))
					return
				}
				if day == strconv.Itoa(fxBaseDays-1) {
					served[0].Add(1)
				} else {
					served[1].Add(1)
				}
			}
		}(g)
	}

	// Let the readers serve the base generation, then grow the trace by
	// an atomic swap and advance the state mid-fire.
	for served[0].Load() < int64(2*len(ids)) && !stop.Load() {
		time.Sleep(time.Millisecond)
	}
	replaceFile(t, fxExt, tracePath)
	advanced, day, err := srv.Refresh(context.Background())
	if err != nil {
		fail(err)
	} else if !advanced || day != fxExtDays-1 {
		fail(fmt.Errorf("refresh: advanced=%v day=%d, want advance to %d", advanced, day, fxExtDays-1))
	}
	if snap := srv.Snapshot(); snap.ResumedFrom != fxBaseDays-1 {
		t.Errorf("refresh resumed from day %d, want %d (a real incremental advance, not a silent from-zero)", snap.ResumedFrom, fxBaseDays-1)
	} else if snap.ResumedVia != "memory" {
		// The warm path: the refresh mutated the state the base
		// generation's pass ended on while readers served that
		// generation, so under -race this also proves the published
		// Result does not alias it.
		t.Errorf("refresh resumed via %q, want memory (the warm load's end state)", snap.ResumedVia)
	}

	// Let the readers observe the new generation, then stop.
	for served[1].Load() < int64(2*len(ids)) && !stop.Load() {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if served[0].Load() == 0 || served[1].Load() == 0 {
		t.Fatalf("responses per generation = %d base / %d ext; want both observed", served[0].Load(), served[1].Load())
	}
	t.Logf("served %d responses at day %d and %d at day %d across the swap",
		served[0].Load(), fxBaseDays-1, served[1].Load(), fxExtDays-1)
}
