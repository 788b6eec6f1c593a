package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/storage"
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

// errPutFault is the failure failingBackend injects.
var errPutFault = errors.New("injected Put failure")

// failingBackend is a DirBackend whose Put fails from the failFrom-th
// call on (counting from 1; 0 never fails), so a test can fail a chosen
// checkpoint write.
type failingBackend struct {
	*storage.DirBackend
	mu       sync.Mutex
	puts     int
	failFrom int
}

func (b *failingBackend) Put(name string, data []byte) error {
	b.mu.Lock()
	b.puts++
	fail := b.failFrom > 0 && b.puts >= b.failFrom
	b.mu.Unlock()
	if fail {
		return errPutFault
	}
	return b.DirBackend.Put(name, data)
}

// failNext makes every Put from the next one on fail (on = true), or
// none (on = false).
func (b *failingBackend) failNext(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failFrom = 0
	if on {
		b.failFrom = b.puts + 1
	}
}

// TestWarmAdvanceCheckpointWriteFails: a warm pass whose checkpoint
// write fails returns the error and no handle, and the next pass, given
// no handle, resumes from the newest intact checkpoint on the same
// backend and matches the from-zero run.
func TestWarmAdvanceCheckpointWriteFails(t *testing.T) {
	srcs := horizons(t, 270, 300)
	base, grown := srcs[0], srcs[1]
	figs := []string{"fig1a", "fig2a", "fig3c", "fig5a", "fig4a", "fig8c"}

	fb := &failingBackend{DirBackend: storage.NewDirBackend(t.TempDir())}
	cfg := resumeTestConfig("")
	cfg.CheckpointBackend = fb
	cfg.Resume = true
	cfg.CheckpointFullEvery = 2
	_, h, err := ContinueFigures(nil, base, cfg, nil, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		t.Fatal("cold pass returned no handle")
	}
	fb.failNext(true)
	res, next, err := ContinueFigures(nil, grown, cfg, h, figs...)
	if !errors.Is(err, errPutFault) || res != nil || next != nil {
		t.Fatalf("warm pass with a failed checkpoint write: err %v, result %v, handle %v", err, res != nil, next != nil)
	}
	fb.failNext(false)
	retry, _, err := ContinueFigures(nil, grown, cfg, nil, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ResumedInMemory || retry.ResumedFromDay != 269 {
		t.Fatalf("retry: ResumedInMemory %v from day %d, want the day-269 checkpoint", retry.ResumedInMemory, retry.ResumedFromDay)
	}
	plain := cfg
	plain.CheckpointBackend, plain.Resume = nil, false
	want, err := RunFigures(nil, grown, plain, figs...)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "retry after a failed write", want, retry)
}

// TestFinishLeavesStagesResumable pins engine.Stage's Finish rule for
// every checkpointed stage of the full plan: a pass that finishes at day
// d and then continues the same live stages to the trace's last day e
// must end with the SaveState bytes and the Result of a from-zero pass to
// e. Day d has edges and its edge count is off the α interval, so the
// first Finish builds both the open day's Fig 2c row and an off-interval
// α sample.
func TestFinishLeavesStagesResumable(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallelTestConfig()
	// The first day from 230 on (past the merge day, with communities and
	// α samples) whose edges leave the running count off the α interval.
	var cut int
	edges := int64(0)
	for i, ev := range tr.Events {
		if ev.Kind == trace.AddEdge {
			edges++
		}
		last := i+1 == len(tr.Events) || tr.Events[i+1].Day != ev.Day
		if last && ev.Day >= 230 && ev.Kind == trace.AddEdge && edges%cfg.Alpha.Interval != 0 {
			cut = i + 1
			break
		}
	}
	if cut == 0 {
		t.Fatal("no day qualifies as the first Finish")
	}
	dir := t.TempDir()
	prefix := encodeTrace(t, &trace.Trace{Meta: tr.Meta, Events: tr.Events[:cut]}, filepath.Join(dir, "d.trace"))
	full := encodeTrace(t, tr, filepath.Join(dir, "e.trace"))
	d := prefix.Meta().Days - 1

	ctx := context.Background()
	plan := fullPlan()
	x := plan.instantiate(cfg, prefix.Meta())
	_, st, err := x.run(ctx, prefix)
	if err != nil {
		t.Fatal(err)
	}
	x.bind(plan, x.rt.cfg, full.Meta())
	x.resumeState, x.resumeDay = st, d
	got, _, err := x.run(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	z := plan.instantiate(cfg, full.Meta())
	want, _, err := z.run(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, fmt.Sprintf("finished at day %d, continued", d), want, got)
	if len(x.stages) != len(z.stages) {
		t.Fatalf("continued run has %d stages, from-zero run %d", len(x.stages), len(z.stages))
	}
	for i, s := range x.stages {
		var a, b bytes.Buffer
		if err := s.(engine.Checkpointer).SaveState(&a); err != nil {
			t.Fatal(err)
		}
		if err := z.stages[i].(engine.Checkpointer).SaveState(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("stage %s: state after Finish at day %d and continuing differs from the from-zero state", s.Name(), d)
		}
	}
}

// TestHandleAtAnotherBudget: a handle from a pass at another CPU budget
// is not continued, since its stages draw on that pass's pool. The pass
// reads the checkpoint the handle describes back from the backend
// instead, and still matches the from-zero run.
func TestHandleAtAnotherBudget(t *testing.T) {
	srcs := horizons(t, 270, 300)
	figs := []string{"fig1d", "fig4a", "fig5a"}
	cfg := resumeTestConfig(t.TempDir())
	cfg.Resume, cfg.Workers = true, 2
	_, h, err := ContinueFigures(nil, srcs[0], cfg, nil, figs...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	res, _, err := ContinueFigures(nil, srcs[1], cfg, h, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedInMemory || res.ResumedFromDay != 269 {
		t.Fatalf("handle at another budget: ResumedInMemory %v from day %d, want the day-269 checkpoint", res.ResumedInMemory, res.ResumedFromDay)
	}
	plain := cfg
	plain.CheckpointDir, plain.Resume = "", false
	want, err := RunFigures(nil, srcs[1], plain, figs...)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "other budget", want, res)
}

// TestFinishBesideCheckpoint: the end-of-run checkpoint is written beside
// the Finish chain. Over the full plan with checkpoints on, budgets of 2
// and 8 tokens (where the two may run at once) must write the very
// end-of-run object a budget of 1 (checkpoint first, then Finish, inline)
// writes, and every budget's Result must match a from-zero run without
// checkpoints. Under -race this runs SaveState against Finish on every
// stage of the plan.
func TestFinishBesideCheckpoint(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "beside.trace"))
	last := checkpointFileName(src.Meta().Days - 1)

	plain := parallelTestConfig()
	want, err := RunPlan(nil, src, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		cfg := resumeTestConfig(dir)
		cfg.CheckpointFullEvery = 2
		cfg.Workers = workers
		got, err := RunPlan(nil, src, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, fmt.Sprintf("workers=%d", workers), want, got)
		b, err := storage.NewDirBackend(dir).Get(last)
		if err != nil {
			t.Fatalf("workers=%d: end-of-run checkpoint: %v", workers, err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Errorf("workers=%d: end-of-run checkpoint %s differs from the budget-1 run's (%d vs %d bytes)", workers, last, len(b), len(first))
		}
	}
}

// TestMergePredictionMemo: one-day warm advances over a window holding
// two snapshot days. The Fig 6b evaluation is reused on the days that
// took no snapshot and recomputed on the days that did; on every day
// fig6b equals a from-zero RunFigures over the same prefix.
func TestMergePredictionMemo(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// cfg snapshots every 6 days: passes ending on days 285..296 take
	// snapshots on days 290 and 296.
	prefix := func(days int32) *trace.FileSource {
		var n int
		for n < len(tr.Events) && tr.Events[n].Day < days {
			n++
		}
		return encodeTrace(t, &trace.Trace{Meta: tr.Meta, Events: tr.Events[:n]}, filepath.Join(dir, fmt.Sprintf("d%d.trace", days)))
	}
	cfg := resumeTestConfig(t.TempDir())
	cfg.Resume = true
	plain := cfg
	plain.CheckpointDir, plain.Resume = "", false

	var h *ResumeHandle
	// The previous pass's Result shares its Community with the live
	// stage, so its last snapshot day is kept apart.
	var prev *Result
	var prevTab *Table
	var prevLast int32
	snapshots, moved := 0, false
	for days := int32(286); days <= 297; days++ {
		src := prefix(days)
		res, next, err := ContinueFigures(nil, src, cfg, h, "fig6b")
		if err != nil {
			t.Fatal(err)
		}
		h = next
		tab, err := res.Figure("fig6b")
		if err != nil {
			t.Fatalf("day %d: %v", days-1, err)
		}
		zero, err := RunFigures(nil, src, plain, "fig6b")
		if err != nil {
			t.Fatal(err)
		}
		want, err := zero.Figure("fig6b")
		if err != nil {
			t.Fatal(err)
		}
		if !tab.Equal(want) {
			t.Errorf("day %d: warm fig6b differs from the from-zero run", days-1)
		}
		if prev != nil {
			if !res.ResumedInMemory {
				t.Fatalf("day %d: pass did not continue in memory", days-1)
			}
			switch {
			case res.Community.LastDay != prevLast:
				snapshots++
				moved = moved || !tab.Equal(prevTab)
			case len(res.MergeBins) == 0 || &res.MergeBins[0] != &prev.MergeBins[0]:
				t.Errorf("day %d: no new snapshot since day %d, but the evaluation was not reused", days-1, prevLast)
			}
		}
		prev, prevTab, prevLast = res, tab, res.Community.LastDay
	}
	// Without a snapshot that moves fig6b, a memo that is never
	// invalidated would pass.
	if snapshots < 2 || !moved {
		t.Fatalf("window holds %d snapshots, fig6b moved: %v; want at least 2 and a move", snapshots, moved)
	}
}
