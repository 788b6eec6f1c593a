package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
)

// parallelTestConfig is the resume test's scaled-down full-plan config
// without the checkpoint plane.
func parallelTestConfig() Config {
	cfg := resumeTestConfig("")
	cfg.CheckpointDir = ""
	cfg.CheckpointEvery = 0
	return cfg
}

type progressPoint struct {
	Day    int32
	Events int64
}

// TestParallelWorkersMatch is the determinism stress test at the seams:
// the full plan at workers ∈ {1, 2, 8} must produce the golden figure
// tables (goldenSmall) and bit-identical δ-sweep
// results and tracking events, and the OnProgress
// sequence must be identical too — one emission per day, in strict day
// order, with the same cumulative event counts (never double-counted by
// the decode-ahead reader).
func TestParallelWorkersMatch(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "parallel.trace"))

	run := func(workers int) (*Result, []progressPoint) {
		cfg := parallelTestConfig()
		cfg.Workers = workers
		var pr []progressPoint
		cfg.OnProgress = func(day int32, events int64) {
			pr = append(pr, progressPoint{day, events})
		}
		res, err := RunPlan(context.Background(), src, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, pr
	}

	base, basePr := run(1)
	checkGolden(t, "workers=1", goldenSmall, base)
	for i := 1; i < len(basePr); i++ {
		if basePr[i].Day != basePr[i-1].Day+1 {
			t.Fatalf("progress days not consecutive: %d then %d", basePr[i-1].Day, basePr[i].Day)
		}
		if basePr[i].Events < basePr[i-1].Events {
			t.Fatalf("progress events regressed at day %d", basePr[i].Day)
		}
	}
	for _, workers := range []int{2, 8} {
		res, pr := run(workers)
		compareRuns(t, fmt.Sprintf("workers=%d", workers), base, res)
		if !reflect.DeepEqual(pr, basePr) {
			t.Errorf("workers=%d: progress sequence diverged from sequential", workers)
		}
	}
}

// TestParallelCancelMidDay: a cancellation raised at a day boundary stops
// the run with ctx's error and no Result, at any worker count — the
// parallel day barrier and the prefetch reader both honor it.
func TestParallelCancelMidDay(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "cancel.trace"))
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := parallelTestConfig()
		cfg.Workers = workers
		cfg.OnProgress = func(day int32, _ int64) {
			if day == 120 {
				cancel()
			}
		}
		res, err := RunPlan(ctx, src, cfg, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: got a Result from a cancelled run", workers)
		}
	}
}

// TestParallelResumeAcrossWorkerCounts pins that Workers is a throughput
// knob outside the checkpoint fingerprint: a mid-trace checkpoint written
// at one worker count resumes at another, bit-identical to the writing
// run.
func TestParallelResumeAcrossWorkerCounts(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "xworkers.trace"))
	for _, tc := range []struct{ write, resume int }{{1, 8}, {8, 1}} {
		t.Run(fmt.Sprintf("write%d_resume%d", tc.write, tc.resume), func(t *testing.T) {
			dir := t.TempDir()
			cfg := resumeTestConfig(dir)
			cfg.Workers = tc.write
			base, err := RunPlan(context.Background(), src, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			days := checkpointDays(t, dir)
			if len(days) < 2 {
				t.Fatalf("only %d checkpoints written: %v", len(days), days)
			}
			day := days[len(days)/2] // a mid-trace checkpoint, not the end-of-run one
			one := t.TempDir()
			raw, err := os.ReadFile(filepath.Join(dir, checkpointFileName(day)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(one, checkpointFileName(day)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			rcfg := resumeTestConfig(one)
			rcfg.Workers = tc.resume
			rcfg.Resume = true
			res, err := RunPlan(context.Background(), src, rcfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedFromDay != day {
				t.Fatalf("ResumedFromDay = %d, want %d", res.ResumedFromDay, day)
			}
			compareRuns(t, "cross-worker resume", base, res)
		})
	}
}
