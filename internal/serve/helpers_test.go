package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// The package fixture: one 270-day trace and its 300-day extension,
// generated once. Same seed and preset, only the horizon differs, so the
// base file is an exact prefix of the extension (pinned by
// gen's TestExtendedHorizonKeepsPrefix) — replacing base with ext is the
// "trace gained days" scenario every refresh test exercises.
var (
	fxDir  string
	fxBase string
	fxExt  string
)

const (
	fxBaseDays = 270 // last day 269
	fxExtDays  = 300 // last day 299
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fxDir = dir
	fxBase = filepath.Join(dir, "base.trace")
	fxExt = filepath.Join(dir, "ext.trace")
	gcfg := gen.SmallConfig()
	gcfg.Days = fxBaseDays
	if _, err := gen.GenerateToFile(gcfg, fxBase); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gcfg.Days = fxExtDays
	if _, err := gen.GenerateToFile(gcfg, fxExt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// serveTestConfig mirrors core's resumeTestConfig scale-down so the full
// warm plan stays fast, with the δ grid and size-distribution days pinned
// (they are part of the checkpoint fingerprint; see rranalyze -dist-days).
func serveTestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha.Interval = 2000
	cfg.Alpha.MinEdges = 4000
	cfg.Alpha.PolyDegree = 3
	cfg.Community.SnapshotEvery = 6
	cfg.Community.SizeDistDays = []int32{200, 230, 260} // on the day-20+6k grid, inside both horizons
	cfg.DeltaSweep = []float64{0.01, 0.1}
	cfg.PathEvery = 30
	cfg.PathSources = 30
	cfg.ClusteringSamples = 300
	cfg.CheckpointEvery = 90
	return cfg
}

// fromZero runs the full warm plan from day 0 over path — no checkpoint
// plane — and seals the result: the quiesced reference every served
// response is compared against.
func fromZero(t testing.TB, path string) *core.Result {
	t.Helper()
	src, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFigures(nil, src, serveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res.Seal()
	return res
}

// Expected results are expensive (a full from-zero pass each), so they are
// computed once per process and shared; a sealed Result is read-only.
var (
	fxOnce    sync.Once
	fxBaseRes *core.Result
	fxExtRes  *core.Result
)

func referenceResults(t testing.TB) (base, ext *core.Result) {
	t.Helper()
	fxOnce.Do(func() {
		fxBaseRes = fromZero(t, fxBase)
		fxExtRes = fromZero(t, fxExt)
	})
	if fxBaseRes == nil || fxExtRes == nil {
		t.Fatal("reference results unavailable (an earlier reference pass failed)")
	}
	return fxBaseRes, fxExtRes
}

// encodeFigure renders one panel of a sealed result the same way the
// server does.
func encodeFigure(t testing.TB, res *core.Result, id string, f core.Format) []byte {
	t.Helper()
	tab, err := res.Figure(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyFile clones src to dst (plain write; use replaceFile for the
// atomic-swap path).
func copyFile(t testing.TB, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replaceFile atomically swaps dst's content with src's via the
// tmp+rename idiom trace writers use, so no reader ever sees a torn file.
func replaceFile(t testing.TB, src, dst string) {
	t.Helper()
	tmp := dst + ".tmp"
	copyFile(t, src, tmp)
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
}
