package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/storage"
)

// tieredConfig is resumeTestConfig at the tiered cadence: every second
// checkpoint is a delta, landing a full/delta mix (90 F, 180 D, 270 F,
// 299 D at the small preset's 90-day cadence) inside the small trace.
func tieredConfig(dir string) Config {
	cfg := resumeTestConfig(dir)
	cfg.CheckpointFullEvery = 2
	return cfg
}

// ckptNamesIn lists the checkpoint object names present in dir.
func ckptNamesIn(t *testing.T, dir string) []string {
	t.Helper()
	objs, err := storage.NewDirBackend(dir).List(checkpointPrefix)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.Name
	}
	return names
}

// TestTieredResumeMatchesFromZero is the delta plane's correctness bar:
// a run resumed through a full-plus-delta chain produces figure tables
// bit-identical to the from-zero run, and the deltas are genuinely
// smaller than the fulls they ride between.
func TestTieredResumeMatchesFromZero(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "tiered.trace"))
	dir := t.TempDir()
	cfg := tieredConfig(dir)

	var stats []CheckpointStat
	cfg.CheckpointObserver = func(s CheckpointStat) { stats = append(stats, s) }
	base, err := RunFigures(nil, src, cfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointObserver = nil

	// The cadence produced alternating kinds, the observer saw every
	// write, and each delta undercuts its neighboring fulls.
	var fulls, deltas int
	var fullBytes, deltaBytes int64
	for _, s := range stats {
		if s.Delta {
			deltas++
			deltaBytes += s.Bytes
		} else {
			fulls++
			fullBytes += s.Bytes
		}
		if s.Bytes <= 0 {
			t.Fatalf("observer saw a %d-byte checkpoint: %+v", s.Bytes, s)
		}
	}
	if fulls < 2 || deltas < 2 {
		t.Fatalf("cadence produced %d fulls, %d deltas: %+v", fulls, deltas, stats)
	}
	if avgD, avgF := deltaBytes/int64(deltas), fullBytes/int64(fulls); avgD >= avgF {
		t.Errorf("deltas average %d bytes, fulls %d — delta encoding saved nothing", avgD, avgF)
	}

	// Resume from the full inventory: the newest checkpoint is a delta,
	// so resolution must walk its chain.
	rcfg := cfg
	rcfg.Resume = true
	res, err := RunFigures(nil, src, rcfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	last := stats[len(stats)-1]
	if !last.Delta {
		t.Fatalf("expected the last checkpoint to be a delta: %+v", stats)
	}
	if res.ResumedFromDay != last.Day {
		t.Fatalf("ResumedFromDay = %d, want %d (the delta chain tip)", res.ResumedFromDay, last.Day)
	}
	compareRuns(t, "tiered-resume", base, res)

	// The inventory helper sees the same objects, with the same kinds and
	// parent links.
	infos, err := ListCheckpoints(storage.NewDirBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(stats) {
		t.Fatalf("inventory has %d objects, observer saw %d writes", len(infos), len(stats))
	}
	for i, info := range infos {
		if info.Err != "" {
			t.Fatalf("inventory flagged %s: %s", info.Name, info.Err)
		}
		if info.Day != stats[i].Day || info.Delta != stats[i].Delta {
			t.Fatalf("inventory row %+v, observer saw %+v", info, stats[i])
		}
		if info.Delta != (info.ParentDay >= 0) {
			t.Fatalf("%s: delta %v with parent day %d", info.Name, info.Delta, info.ParentDay)
		}
	}
}

// TestTieredFallbackOnBrokenChain pins the failure contract: a delta
// whose parent is missing or rewritten is a dead chain — resolution
// falls back to the newest older resolvable checkpoint (here the
// previous delta's intact chain), never to day 0 and never to an error.
func TestTieredFallbackOnBrokenChain(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "chain.trace"))
	dir := t.TempDir()
	cfg := tieredConfig(dir)

	var stats []CheckpointStat
	cfg.CheckpointObserver = func(s CheckpointStat) { stats = append(stats, s) }
	base, err := RunFigures(nil, src, cfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointObserver = nil
	// Expected shape: full, delta, full, delta (90/180/270/299).
	if len(stats) != 4 || stats[0].Delta || !stats[1].Delta || stats[2].Delta || !stats[3].Delta {
		t.Fatalf("unexpected checkpoint shape: %+v", stats)
	}
	wantFallback := stats[1].Day // the older delta, whose own chain is intact

	for name, breakParent := range map[string]func(path string){
		"missing-parent": func(path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt-parent": func(path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)*2/3], 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			clone := t.TempDir()
			for _, obj := range ckptNamesIn(t, dir) {
				raw, err := os.ReadFile(filepath.Join(dir, obj))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(clone, obj), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Break the newest delta's parent full (day 270): its chain is
			// now unresolvable, and day 270 itself no longer loads.
			breakParent(filepath.Join(clone, checkpointFileName(stats[2].Day)))

			rcfg := cfg
			rcfg.CheckpointDir = clone
			rcfg.Resume = true
			res, err := RunFigures(nil, src, rcfg, "fig1a")
			if err != nil {
				t.Fatalf("broken chain broke the run: %v", err)
			}
			if res.ResumedFromDay != wantFallback {
				t.Fatalf("ResumedFromDay = %d, want %d (older intact chain)", res.ResumedFromDay, wantFallback)
			}
			compareRuns(t, name, base, res)
		})
	}
}

// TestCheckpointRetention pins the GC contract: CheckpointKeep=N leaves
// the newest N fulls plus the deltas above them, and never touches
// objects it cannot attribute to this run's fingerprint.
func TestCheckpointRetention(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "retain.trace"))
	dir := t.TempDir()
	cfg := tieredConfig(dir)
	cfg.CheckpointKeep = 1

	// A foreign object under the checkpoint prefix — same namespace,
	// unreadable header — must survive every GC pass.
	foreign := filepath.Join(dir, checkpointFileName(7))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stats []CheckpointStat
	cfg.CheckpointObserver = func(s CheckpointStat) { stats = append(stats, s) }
	base, err := RunFigures(nil, src, cfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointObserver = nil
	if len(stats) < 4 {
		t.Fatalf("only %d checkpoints written: %+v", len(stats), stats)
	}

	infos, err := ListCheckpoints(storage.NewDirBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	var keptFullDay int32 = -1
	var mine []CheckpointInfo
	for _, info := range infos {
		if filepath.Join(dir, info.Name) == foreign {
			continue
		}
		mine = append(mine, info)
		if !info.Delta {
			if keptFullDay >= 0 {
				t.Fatalf("retention kept two fulls: %+v", mine)
			}
			keptFullDay = info.Day
		}
	}
	if keptFullDay < 0 {
		t.Fatalf("retention deleted every full: %+v", mine)
	}
	for _, info := range mine {
		if info.Day < keptFullDay {
			t.Fatalf("object %s is older than the kept full (day %d)", info.Name, keptFullDay)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("retention deleted the foreign object: %v", err)
	}

	// What retention kept still resumes, from the newest day.
	rcfg := cfg
	rcfg.Resume = true
	res, err := RunFigures(nil, src, rcfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if want := stats[len(stats)-1].Day; res.ResumedFromDay != want {
		t.Fatalf("ResumedFromDay = %d, want %d", res.ResumedFromDay, want)
	}
	compareRuns(t, "retention-resume", base, res)
}

// TestTieredResumeContinuesChain: a run that restores a checkpoint can
// delta against it — resuming does not force the next checkpoint back to
// a full.
func TestTieredResumeContinuesChain(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "cont.trace"))
	dir := t.TempDir()
	cfg := tieredConfig(dir)

	var first []CheckpointStat
	cfg.CheckpointObserver = func(s CheckpointStat) { first = append(first, s) }
	if _, err := RunFigures(nil, src, cfg, "fig1a"); err != nil {
		t.Fatal(err)
	}

	// Keep only the first full; the resumed run rebuilds the rest of the
	// inventory and its first new checkpoint rides the restored parent.
	for _, obj := range ckptNamesIn(t, dir) {
		if obj != checkpointFileName(first[0].Day) {
			if err := os.Remove(filepath.Join(dir, obj)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var second []CheckpointStat
	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointObserver = func(s CheckpointStat) { second = append(second, s) }
	res, err := RunFigures(nil, src, rcfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromDay != first[0].Day {
		t.Fatalf("ResumedFromDay = %d, want %d", res.ResumedFromDay, first[0].Day)
	}
	if len(second) == 0 || !second[0].Delta {
		t.Fatalf("resumed run's first checkpoint should delta against the restored full: %+v", second)
	}
}
