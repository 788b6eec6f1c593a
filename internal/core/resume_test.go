package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/trace"
)

// resumeTestConfig mirrors the equivalence test's scaled-down knobs, plus
// a checkpoint cadence that lands several checkpoints inside the small
// trace.
func resumeTestConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.Alpha.Interval = 2000
	cfg.Alpha.MinEdges = 4000
	cfg.Alpha.PolyDegree = 3
	cfg.Community.SnapshotEvery = 6
	cfg.Community.SizeDistDays = []int32{200, 254, 296}
	cfg.DeltaSweep = []float64{0.01, 0.1}
	cfg.PathEvery = 30
	cfg.PathSources = 30
	cfg.ClusteringSamples = 300
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 90
	return cfg
}

// encodeTrace streams tr to a trace file (day index included) and opens
// it, so resume exercises the real OpenAt path.
func encodeTrace(t *testing.T, tr *trace.Trace, path string) *trace.FileSource {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(tr.Meta.Seed)
	enc.SetMergeDay(tr.Meta.MergeDay)
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// checkpointDays lists the checkpoint days present in dir, ascending.
func checkpointDays(t *testing.T, dir string) []int32 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var days []int32
	for _, e := range ents {
		if d, ok := parseCheckpointName(e.Name()); ok {
			days = append(days, d)
		}
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	return days
}

// compareAllFigures asserts bit-identical figure tables (and identical
// figure availability) between two pipeline runs.
func compareAllFigures(t *testing.T, label string, base, other *Result) {
	t.Helper()
	for _, id := range AllFigures {
		baseTab, baseErr := base.Figure(id)
		otherTab, otherErr := other.Figure(id)
		if (baseErr == nil) != (otherErr == nil) {
			t.Errorf("%s: figure %s: err %v vs %v", label, id, baseErr, otherErr)
			continue
		}
		if baseErr == nil && !baseTab.Equal(otherTab) {
			t.Errorf("%s: figure %s differs", label, id)
		}
	}
}

// compareRuns holds two pipeline results bit-identical: every figure
// table, the δ-sweep runs, and the community tracking events.
func compareRuns(t *testing.T, label string, base, other *Result) {
	t.Helper()
	compareAllFigures(t, label, base, other)
	if !reflect.DeepEqual(base.DeltaSweep, other.DeltaSweep) {
		t.Errorf("%s: δ-sweep results diverged", label)
	}
	if (base.Community == nil) != (other.Community == nil) {
		t.Fatalf("%s: community result presence diverged", label)
	}
	if base.Community != nil && !reflect.DeepEqual(base.Community.Events, other.Community.Events) {
		t.Errorf("%s: tracking events diverged", label)
	}
	if base.MergeOverall != other.MergeOverall {
		t.Errorf("%s: merge prediction diverged: %+v vs %+v", label, base.MergeOverall, other.MergeOverall)
	}
}

// TestResumeMatchesFromZero is the tentpole's correctness guarantee: for
// every registered streaming stage set, a run resumed from any
// intermediate checkpoint day yields bit-identical figure tables
// (δ-sweep results and tracking events included) to the from-zero run.
func TestResumeMatchesFromZero(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "resume.trace"))

	// One case per producing stage's minimal plan, plus the full plan
	// (nil figure list = every stage the config enables, sweep included).
	cases := []struct {
		name    string
		figures []string
	}{
		{"full", nil},
		{"metrics", []string{"fig1a"}},
		{"evolution", []string{"fig2a"}},
		{"alpha", []string{"fig3c"}},
		{"community", []string{"fig5a"}},
		{"users", []string{"fig7a"}},
		{"svm", []string{"fig6b"}},
		{"sweep", []string{"fig4a"}},
		{"osnmerge", []string{"fig8c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := resumeTestConfig(dir)

			// From-zero run, writing checkpoints as it goes.
			base, err := RunFigures(nil, src, cfg, tc.figures...)
			if err != nil {
				t.Fatal(err)
			}
			if base.ResumedFromDay != -1 {
				t.Fatalf("from-zero run reports ResumedFromDay %d", base.ResumedFromDay)
			}
			days := checkpointDays(t, dir)
			if len(days) < 3 {
				t.Fatalf("only %d checkpoints written: %v", len(days), days)
			}
			if tc.figures == nil {
				// The full plan is goldenSmall's run.
				checkGolden(t, "from-zero", goldenSmall, base)
				checkGoldenCheckpoint(t, "from-zero", goldenSmall, dir, days[len(days)-1])
			}

			// Checkpointing itself must not perturb results.
			plain := cfg
			plain.CheckpointDir = ""
			noCkpt, err := RunFigures(nil, src, plain, tc.figures...)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, tc.name+":checkpointing-off", base, noCkpt)

			// Resume from every checkpoint day: each gets a directory with
			// just that file, so resolution can't pick a later one.
			for _, day := range days {
				one := t.TempDir()
				raw, err := os.ReadFile(filepath.Join(dir, checkpointFileName(day)))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(one, checkpointFileName(day)), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				rcfg := cfg
				rcfg.CheckpointDir = one
				rcfg.Resume = true
				res, err := RunFigures(nil, src, rcfg, tc.figures...)
				if err != nil {
					t.Fatalf("resume from day %d: %v", day, err)
				}
				if res.ResumedFromDay != day {
					t.Fatalf("resume from day %d: ResumedFromDay = %d", day, res.ResumedFromDay)
				}
				compareRuns(t, tc.name+":resume", base, res)
			}
		})
	}
}

// TestResumeFallsBackOnMismatch pins the compatibility contract: a
// checkpoint written under a different config or stage set is ignored —
// the run replays from day 0 and still produces the from-zero tables.
func TestResumeFallsBackOnMismatch(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "mismatch.trace"))
	dir := t.TempDir()
	cfg := resumeTestConfig(dir)

	if _, err := RunFigures(nil, src, cfg, "fig1a"); err != nil {
		t.Fatal(err)
	}
	if len(checkpointDays(t, dir)) == 0 {
		t.Fatal("no checkpoints written")
	}
	// Every scenario below also *writes* checkpoints under its own
	// fingerprint; give each its own copy of the originals so one
	// scenario's output can't satisfy (or shadow) another's lookup.
	cloneDir := func() string {
		clone := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(clone, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return clone
	}

	// Config mismatch: a different metrics seed changes the fingerprint.
	seedCfg := cfg
	seedCfg.CheckpointDir = cloneDir()
	seedCfg.Resume = true
	seedCfg.Seed = 99
	res, err := RunFigures(nil, src, seedCfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromDay != -1 {
		t.Fatalf("config-mismatched run resumed from day %d", res.ResumedFromDay)
	}
	fresh := seedCfg
	fresh.CheckpointDir = ""
	fresh.Resume = false
	want, err := RunFigures(nil, src, fresh, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "config-mismatch", want, res)

	// Progress toggle: the observational progress stage is excluded from
	// the state plane, so turning the display on must not invalidate the
	// checkpoints.
	progCfg := cfg
	progCfg.CheckpointDir = cloneDir()
	progCfg.Resume = true
	progCfg.OnProgress = func(int32, int64) {}
	res, err = RunFigures(nil, src, progCfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromDay < 0 {
		t.Error("toggling -progress invalidated the checkpoints")
	}

	// Trace mismatch: a trace regenerated with the same seed but
	// different generator knobs carries the same fingerprint identity
	// (seed, merge day) yet a different event stream; the event-count
	// probe must reject the checkpoints instead of serving stale state.
	otherGen := gen.SmallConfig()
	otherGen.Arrival.Base *= 2
	otherTr, err := gen.Generate(otherGen)
	if err != nil {
		t.Fatal(err)
	}
	if otherTr.Meta.Seed != tr.Meta.Seed || otherTr.Meta.MergeDay != tr.Meta.MergeDay {
		t.Fatalf("regenerated trace changed identity: %+v vs %+v", otherTr.Meta, tr.Meta)
	}
	otherSrc := encodeTrace(t, otherTr, filepath.Join(t.TempDir(), "other.trace"))
	otherCfg := cfg
	otherCfg.CheckpointDir = cloneDir()
	otherCfg.Resume = true
	res, err = RunFigures(nil, otherSrc, otherCfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromDay != -1 {
		t.Fatalf("foreign trace resumed from day %d", res.ResumedFromDay)
	}

	// Stage-set mismatch: the checkpoints were written by a metrics-only
	// plan; an evolution plan must not touch them.
	stageCfg := cfg
	stageCfg.CheckpointDir = cloneDir()
	stageCfg.Resume = true
	res, err = RunFigures(nil, src, stageCfg, "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromDay != -1 {
		t.Fatalf("stage-mismatched run resumed from day %d", res.ResumedFromDay)
	}

	// Truncated checkpoint (e.g. a crash mid-write outside the atomic
	// rename): the run must fall back cleanly, not fail.
	days := checkpointDays(t, dir)
	last := filepath.Join(dir, checkpointFileName(days[len(days)-1]))
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	okCfg := cfg
	okCfg.Resume = true
	res, err = RunFigures(nil, src, okCfg, "fig1a")
	if err != nil {
		t.Fatalf("corrupt checkpoint broke the run: %v", err)
	}
	// Resolution skips the broken newest file and restores the next
	// older checkpoint instead of replaying everything.
	if want := days[len(days)-2]; res.ResumedFromDay != want {
		t.Errorf("ResumedFromDay = %d, want %d (next older checkpoint)", res.ResumedFromDay, want)
	}
	baseCfg := cfg
	baseCfg.CheckpointDir = ""
	want, err = RunFigures(nil, src, baseCfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "corrupt-fallback", want, res)
}

// version1Checkpoint renders c's state and blobs in the version-1 full
// container, which this build no longer reads: magic "RRC1", version 1,
// config hash, day, stage names, the whole adjacency, the join-day and
// origin columns, the state day, one blob per stage, end magic "RRCE".
func version1Checkpoint(t *testing.T, c *checkpoint.Chain) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("RRC1")
	e := checkpoint.NewEncoder(&buf)
	e.U64(1)
	e.U64(c.Header.ConfigHash)
	e.I32(c.Header.Day)
	e.U64(uint64(len(c.Header.Stages)))
	for _, s := range c.Header.Stages {
		e.String(s)
	}
	g := c.State.Graph
	e.U64(uint64(g.NumNodes()))
	var row []graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		row = g.AppendNeighbors(row[:0], graph.NodeID(u))
		e.U64(uint64(len(row)))
		for _, v := range row {
			e.U64(uint64(v))
		}
	}
	e.I32s(c.State.JoinDay)
	origins := make([]byte, len(c.State.Origin))
	for i, o := range c.State.Origin {
		origins[i] = byte(o)
	}
	e.Bytes(origins)
	e.I32(c.State.Day)
	for _, b := range c.Blobs {
		e.Bytes(b)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("RRCE")
	return buf.Bytes()
}

// TestResumeIgnoresVersion1Checkpoint: a checkpoint in the version-1
// container, left behind by an older build under this run's fingerprint,
// is unreadable here. The inventory reports it with Err set, and a resume
// falls back to day 0 with the from-zero figures instead of failing.
func TestResumeIgnoresVersion1Checkpoint(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "v1.trace"))
	cfg := resumeTestConfig(t.TempDir())
	base, err := RunFigures(nil, src, cfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	days := checkpointDays(t, cfg.CheckpointDir)
	name := checkpointFileName(days[len(days)-1])
	raw, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var c checkpoint.Chain
	if err := c.Apply(raw); err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, name), version1Checkpoint(t, &c), 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := ListCheckpoints(storage.NewDirBackend(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != name || !strings.Contains(infos[0].Err, checkpoint.ErrVersion.Error()) {
		t.Fatalf("inventory = %+v, want %s flagged with a version error", infos, name)
	}

	rcfg := cfg
	rcfg.CheckpointDir = old
	rcfg.Resume = true
	res, err := RunFigures(nil, src, rcfg, "fig1a")
	if err != nil {
		t.Fatalf("a version-1 checkpoint broke the run: %v", err)
	}
	if res.ResumedFromDay != -1 {
		t.Fatalf("resumed from day %d off a version-1 checkpoint", res.ResumedFromDay)
	}
	compareRuns(t, "version-1", base, res)
}
