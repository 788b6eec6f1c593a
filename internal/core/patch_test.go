package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/trace"
)

// forPatchBudgets runs test at CPU budgets 1 and 2: the end-of-run
// checkpoint, patches included, runs inline at one and beside Finish at
// two.
func forPatchBudgets(t *testing.T, test func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { test(t, workers) })
	}
}

// loadChain applies the checkpoint chain ending at day from dir, oldest
// link first.
func loadChain(t *testing.T, dir string, day int32) checkpoint.Chain {
	t.Helper()
	var links [][]byte
	for {
		b, err := os.ReadFile(filepath.Join(dir, checkpointFileName(day)))
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, b)
		h, err := checkpoint.ReadHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		if h.Full() {
			break
		}
		day = h.ParentDay
	}
	var c checkpoint.Chain
	for i := len(links) - 1; i >= 0; i-- {
		if err := c.Apply(links[i]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// saveStates returns every stage's SaveState bytes.
func saveStates(t *testing.T, stages []engine.Stage) [][]byte {
	t.Helper()
	out := make([][]byte, len(stages))
	for i, s := range stages {
		var b bytes.Buffer
		if err := s.(engine.Checkpointer).SaveState(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}

// TestPatchChainMatchesFromZero: a chain of CheckpointFullEvery−1 patch
// links restores every stage to the SaveState bytes of a from-zero run to
// the same day. At a 20-day cadence with one full in five, the chains
// ending on days 200 and 299 are a full and four deltas each, and each
// delta carries a patch for every engine.Patcher stage.
func TestPatchChainMatchesFromZero(t *testing.T) {
	srcs := horizons(t, 201, 300)
	forPatchBudgets(t, func(t *testing.T, workers int) {
		ctx := context.Background()
		dir := t.TempDir()
		cfg := resumeTestConfig(dir)
		cfg.CheckpointEvery, cfg.CheckpointFullEvery, cfg.Workers = 20, 5, workers
		full := srcs[1]
		if _, err := RunPlan(ctx, full, cfg, nil); err != nil {
			t.Fatal(err)
		}
		plain := cfg
		plain.CheckpointDir = ""
		for _, src := range srcs {
			day := src.Meta().Days - 1
			x := fullPlan().instantiate(cfg, full.Meta())
			if err := x.loadCheckpointChain(full, ckptCandidate{checkpointFileName(day), day}); err != nil {
				t.Fatalf("day %d: %v", day, err)
			}
			if x.parent.depth != cfg.CheckpointFullEvery-1 {
				t.Fatalf("day %d: chain depth %d, want %d", day, x.parent.depth, cfg.CheckpointFullEvery-1)
			}
			c := loadChain(t, dir, day)
			patchers := 0
			for i, s := range x.stages {
				if _, ok := s.(engine.Patcher); ok {
					patchers++
					if len(c.Patches[i]) != cfg.CheckpointFullEvery-1 {
						t.Errorf("day %d: stage %s has %d patches, want %d", day, s.Name(), len(c.Patches[i]), cfg.CheckpointFullEvery-1)
					}
				}
			}
			if patchers != 3 {
				t.Fatalf("full plan has %d patching stages, want 3 (evolution, users, osnmerge)", patchers)
			}
			z := fullPlan().instantiate(plain, src.Meta())
			if _, _, err := z.run(ctx, src); err != nil {
				t.Fatal(err)
			}
			got, want := saveStates(t, x.stages), saveStates(t, z.stages)
			for i, s := range x.stages {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("day %d: stage %s restored from its chain differs from the from-zero state", day, s.Name())
				}
			}
		}
	})
}

// failRecorder keeps the objects whose Put failed.
type failRecorder struct {
	*failingBackend
	mu     sync.Mutex
	failed [][]byte
}

func (b *failRecorder) Put(name string, data []byte) error {
	err := b.failingBackend.Put(name, data)
	if err != nil {
		b.mu.Lock()
		b.failed = append(b.failed, append([]byte(nil), data...))
		b.mu.Unlock()
	}
	return err
}

// TestWarmAdvancePatchWriteFails is TestWarmAdvanceCheckpointWriteFails
// for a failed patch link: a warm pass whose delta checkpoint, carrying
// stage patches, fails to Put returns the error and no handle. The
// handle-less retry resumes from the newest intact chain and matches the
// from-zero run; the delta it writes patches the stages it restored, and
// a resume through that link matches the from-zero run too.
func TestWarmAdvancePatchWriteFails(t *testing.T) {
	srcs := horizons(t, 270, 300, 310)
	base, grown, longer := srcs[0], srcs[1], srcs[2]
	figs := []string{"fig2a", "fig7a", "fig8c", "fig1a"}
	forPatchBudgets(t, func(t *testing.T, workers int) {
		dir := t.TempDir()
		fb := &failRecorder{failingBackend: &failingBackend{DirBackend: storage.NewDirBackend(dir)}}
		cfg := resumeTestConfig("")
		cfg.CheckpointBackend, cfg.Resume = fb, true
		cfg.CheckpointFullEvery, cfg.Workers = 5, workers
		// Days 90 (full), 180 and 269 (deltas).
		_, h, err := ContinueFigures(nil, base, cfg, nil, figs...)
		if err != nil || h == nil {
			t.Fatalf("cold pass: handle %v, err %v", h != nil, err)
		}
		fb.failNext(true)
		res, next, err := ContinueFigures(nil, grown, cfg, h, figs...)
		if !errors.Is(err, errPutFault) || res != nil || next != nil {
			t.Fatalf("warm pass with a failed patch write: err %v, result %v, handle %v", err, res != nil, next != nil)
		}
		fb.failNext(false)
		if len(fb.failed) != 1 {
			t.Fatalf("%d failed puts, want 1", len(fb.failed))
		}
		// The failed object is the third delta of the day-90 chain, with
		// a third patch for each patching stage.
		c := loadChain(t, dir, 269)
		if err := c.Apply(fb.failed[0]); err != nil {
			t.Fatalf("failed object does not extend the day-269 chain: %v", err)
		}
		for i, name := range c.Header.Stages {
			if p := len(c.Patches[i]); p != 0 && p != 3 {
				t.Errorf("stage %s: %d patches through the failed link, want 3", name, p)
			}
		}
		if !hasPatches(c) {
			t.Fatal("the failed link carries no stage patch")
		}

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
		compareRuns(t, "retry after a failed patch write", want, retry)
		if c := loadChain(t, dir, 299); c.Header.ParentDay != 270 || !hasPatches(c) {
			t.Fatalf("retry's end-of-run object: parent day %d, patches %v; want a patch link of day 270", c.Header.ParentDay, hasPatches(c))
		}

		again, _, err := ContinueFigures(nil, longer, cfg, nil, figs...)
		if err != nil {
			t.Fatal(err)
		}
		if again.ResumedInMemory || again.ResumedFromDay != 299 {
			t.Fatalf("resume through the retry's link: ResumedInMemory %v from day %d, want day 299", again.ResumedInMemory, again.ResumedFromDay)
		}
		if want, err = RunFigures(nil, longer, plain, figs...); err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "resume through the retry's patch link", want, again)
	})
}

// hasPatches reports whether any stage of c holds a patch.
func hasPatches(c checkpoint.Chain) bool {
	for _, p := range c.Patches {
		if len(p) > 0 {
			return true
		}
	}
	return false
}

// TestLoadPatchPastBase: a stage patch applied to a stage short of the
// state it was taken against fails without touching the stage, and a
// resume whose chain holds such a patch falls back to an older
// checkpoint and still matches the from-zero run.
func TestLoadPatchPastBase(t *testing.T) {
	srcs := horizons(t, 270, 300)
	base, grown := srcs[0], srcs[1]
	forPatchBudgets(t, func(t *testing.T, workers int) {
		dir := t.TempDir()
		cfg := resumeTestConfig(dir)
		cfg.CheckpointFullEvery, cfg.Workers = 5, workers
		// Days 90 (full), 180 and 269 (deltas).
		if _, err := RunPlan(nil, base, cfg, nil); err != nil {
			t.Fatal(err)
		}
		c90, c180, c269 := loadChain(t, dir, 90), loadChain(t, dir, 180), loadChain(t, dir, 269)

		// Stage level: each patching stage refuses the day-269 patch on
		// its day-90 state, then takes both patches in order.
		x := fullPlan().instantiate(cfg, base.Meta())
		for i, s := range x.stages {
			pt, ok := s.(engine.Patcher)
			if !ok {
				continue
			}
			if err := pt.LoadState(c269.Blobs[i]); err != nil {
				t.Fatal(err)
			}
			p180, p269 := c269.Patches[i][0], c269.Patches[i][1]
			if err := pt.LoadPatch(p269); err == nil {
				t.Fatalf("stage %s took the day-269 patch on its day-90 state", s.Name())
			}
			for _, p := range [][]byte{p180, p269} {
				if err := pt.LoadPatch(p); err != nil {
					t.Fatalf("stage %s after a refused patch: %v", s.Name(), err)
				}
			}
			if err := pt.LoadPatch(p269); err == nil {
				t.Fatalf("stage %s took the day-269 patch twice", s.Name())
			}
		}

		// Resume level: rewrite the day-180 link with the day-269 patches.
		// Day 269's chain is then dead (its parent's bytes changed), day
		// 180's fails in LoadPatch, and the resume falls back to day 90.
		blobs := make([][]byte, len(c180.Blobs))
		patch := make([]bool, len(c180.Blobs))
		for i := range blobs {
			blobs[i] = c180.Blobs[i]
			if len(c180.Patches[i]) > 0 {
				blobs[i], patch[i] = c269.Patches[i][1], true
			}
		}
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, c180.Header, c180.State, blobs, patch, checkpoint.Degrees(c90.State), checkpoint.BlobSums(c90.Blobs)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName(180)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		y := fullPlan().instantiate(cfg, grown.Meta())
		if err := y.loadCheckpointChain(grown, ckptCandidate{checkpointFileName(180), 180}); err == nil || !strings.Contains(err.Error(), "patch") {
			t.Fatalf("chain with a patch past its base: err %v, want a patch error", err)
		}
		rcfg := cfg
		rcfg.Resume = true
		res, err := RunPlan(nil, grown, rcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResumedFromDay != 90 {
			t.Fatalf("ResumedFromDay = %d, want 90 (the newest intact chain)", res.ResumedFromDay)
		}
		plain := cfg
		plain.CheckpointDir = ""
		want, err := RunPlan(nil, grown, plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "fallback past a bad patch", want, res)
	})
}

// longNameStage counts events under a name long enough to push a
// checkpoint header past the first header read.
type longNameStage struct {
	name   string
	events int64
}

func (s *longNameStage) Name() string                          { return s.name }
func (s *longNameStage) OnEvent(_ *trace.State, _ trace.Event) { s.events++ }
func (s *longNameStage) OnDayEnd(*trace.State, int32)          {}
func (s *longNameStage) Finish(*trace.State) error             { return nil }

func (s *longNameStage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.I64(s.events)
	return e.Flush()
}

func (s *longNameStage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	s.events = d.I64()
	return d.Err()
}

// rangeRecorder records the length of every ranged read.
type rangeRecorder struct {
	storage.Backend
	mu    sync.Mutex
	reads []int64
}

func (b *rangeRecorder) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	b.mu.Lock()
	b.reads = append(b.reads, n)
	b.mu.Unlock()
	return b.Backend.OpenRange(name, off, n)
}

// TestLongCheckpointHeader: a checkpoint whose header runs past the
// first ckptHeaderPrefix bytes (one 6 KiB stage name) still probes, lists
// and resumes, by reading the longer prefix; a short header is read in
// one small read.
func TestLongCheckpointHeader(t *testing.T) {
	srcs := horizons(t, 270, 300)
	for _, n := range []int{6 << 10, 8} {
		name := strings.Repeat("s", n)
		var stage *longNameStage
		plan := &FigurePlan{specs: []*StageSpec{{Name: name, stage: func(*planRT) engine.Stage {
			stage = &longNameStage{name: name}
			return stage
		}}}}
		b := &rangeRecorder{Backend: storage.NewDirBackend(t.TempDir())}
		cfg := resumeTestConfig("")
		cfg.CheckpointBackend, cfg.Resume = b, true
		if _, err := RunPlan(nil, srcs[0], cfg, plan); err != nil {
			t.Fatal(err)
		}
		infos, err := ListCheckpoints(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 3 {
			t.Fatalf("%d-byte name: %d checkpoints listed, want 3", n, len(infos))
		}
		for _, info := range infos {
			if info.Err != "" || len(info.Stages) != 1 || info.Stages[0] != name {
				t.Fatalf("%d-byte name: %s listed with err %q, %d stages", n, info.Name, info.Err, len(info.Stages))
			}
		}
		res, err := RunPlan(nil, srcs[1], cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResumedFromDay != 269 {
			t.Fatalf("%d-byte name: ResumedFromDay = %d, want 269", n, res.ResumedFromDay)
		}
		m := srcs[1].Meta()
		if want := m.Nodes + m.Edges; stage.events != want {
			t.Fatalf("%d-byte name: resumed stage counted %d events, want %d", n, stage.events, want)
		}
		long := false
		for _, r := range b.reads {
			long = long || r > ckptHeaderPrefix
		}
		if want := n > ckptHeaderPrefix; long != want {
			t.Errorf("%d-byte name: read past the %d-byte prefix %v, want %v (reads %v)", n, ckptHeaderPrefix, long, want, b.reads)
		}
	}
}

// TestResumeRefusesVersion1StageBlobs: a backend holding only checkpoints
// whose blobs of one Patcher stage are tagged version 1, the layout from
// before a Patcher's whole blob was its patch against the empty mark,
// resumes from day 0 and matches the from-zero run, for each of the three
// stages.
func TestResumeRefusesVersion1StageBlobs(t *testing.T) {
	src := horizons(t, 200)[0]
	cfg := resumeTestConfig(t.TempDir())
	figs := []string{"fig2a", "fig7a", "fig8c"}
	base, err := RunFigures(nil, src, cfg, figs...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(cfg, figs...)
	if err != nil {
		t.Fatal(err)
	}
	var patchers []string
	for _, s := range plan.instantiate(cfg, src.Meta()).stages {
		if _, ok := s.(engine.Patcher); ok {
			patchers = append(patchers, s.Name())
		}
	}
	if len(patchers) != 3 {
		t.Fatalf("plan has %d patching stages, want 3 (evolution, users, osnmerge)", len(patchers))
	}
	days := checkpointDays(t, cfg.CheckpointDir)
	for _, stage := range patchers {
		dir := t.TempDir()
		for _, day := range days {
			name := checkpointFileName(day)
			raw, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, name))
			if err != nil {
				t.Fatal(err)
			}
			var c checkpoint.Chain
			if err := c.Apply(raw); err != nil {
				t.Fatal(err)
			}
			i := slices.Index(c.Header.Stages, stage)
			// The version is the blob's first varint.
			if i < 0 || c.Blobs[i][0] != 2 {
				t.Fatalf("day %d: no version-2 blob of stage %s", day, stage)
			}
			c.Blobs[i] = append([]byte{1}, c.Blobs[i][1:]...)
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, c.Header, c.State, c.Blobs, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rcfg := cfg
		rcfg.CheckpointDir, rcfg.Resume = dir, true
		res, err := RunFigures(nil, src, rcfg, figs...)
		if err != nil {
			t.Fatalf("version-1 %s blobs broke the run: %v", stage, err)
		}
		if res.ResumedFromDay != -1 {
			t.Fatalf("resumed from day %d over %d checkpoints with version-1 %s blobs", res.ResumedFromDay, len(days), stage)
		}
		compareRuns(t, "version-1 "+stage+" blobs", base, res)
	}
}
