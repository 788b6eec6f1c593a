package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// horizons encodes the small preset at each horizon; every shorter one is
// an exact prefix of the longer ones.
func horizons(t *testing.T, days ...int32) []*trace.FileSource {
	t.Helper()
	dir := t.TempDir()
	out := make([]*trace.FileSource, len(days))
	for i, d := range days {
		gcfg := gen.SmallConfig()
		gcfg.Days = d
		tr, err := gen.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = encodeTrace(t, tr, filepath.Join(dir, fmt.Sprintf("h%d.trace", d)))
	}
	return out
}

// TestContinueFiguresHandle pins the resume handle's contract: a pass
// given the previous pass's handle continues from its end state in
// memory and matches the from-zero run; a handle is spent by the pass it
// is given to, even one that fails; and a handle under another
// fingerprint is never used.
func TestContinueFiguresHandle(t *testing.T) {
	srcs := horizons(t, 270, 300, 310)
	base, grown, longer := srcs[0], srcs[1], srcs[2]
	figs := []string{"fig1a", "fig2a", "fig3c", "fig5a", "fig4a", "fig8c"}

	cfg := resumeTestConfig(t.TempDir())
	cfg.Resume = true
	cfg.CheckpointFullEvery = 2
	first, h, err := ContinueFigures(nil, base, cfg, nil, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || first.ResumedInMemory {
		t.Fatalf("cold pass: handle %v, ResumedInMemory %v", h != nil, first.ResumedInMemory)
	}
	res, next, err := ContinueFigures(nil, grown, cfg, h, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResumedInMemory || res.ResumedFromDay != 269 || next == nil {
		t.Fatalf("warm pass: ResumedInMemory %v from day %d, next handle %v", res.ResumedInMemory, res.ResumedFromDay, next != nil)
	}
	plain := cfg
	plain.CheckpointDir, plain.Resume = "", false
	want, err := RunFigures(nil, grown, plain, figs...)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "warm", want, res)

	// A pass that takes the handle and then fails spends it, even though
	// the checkpoint it describes is still the newest: the retry reads
	// the backend.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := cfg
	ccfg.OnProgress = func(int32, int64) { cancel() }
	if _, _, err := ContinueFigures(ctx, longer, ccfg, next, figs...); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass: err = %v", err)
	}
	retry, _, err := ContinueFigures(nil, longer, cfg, next, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ResumedInMemory || retry.ResumedFromDay != 299 {
		t.Fatalf("retry after a failed pass: ResumedInMemory %v from day %d, want the day-299 checkpoint", retry.ResumedInMemory, retry.ResumedFromDay)
	}
	want, err = RunFigures(nil, longer, plain, figs...)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "retry", want, retry)

	// A handle under another fingerprint (a different metrics knob) is
	// consumed but never restored from.
	other := resumeTestConfig(t.TempDir())
	other.Resume = true
	other.PathEvery++
	_, oh, err := ContinueFigures(nil, base, cfg, nil, figs...)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = ContinueFigures(nil, grown, other, oh, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedInMemory || res.ResumedFromDay != -1 {
		t.Fatalf("foreign-fingerprint handle: ResumedInMemory %v from day %d", res.ResumedInMemory, res.ResumedFromDay)
	}

	// One-shot callers never see a handle: RunFigures behaves as before.
	one, err := RunFigures(nil, grown, cfg, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if one.ResumedInMemory {
		t.Fatal("RunFigures continued in memory")
	}
}
