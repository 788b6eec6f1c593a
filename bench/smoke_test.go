package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// tinyWorkloads are the benchmark's workloads at a scale that runs in a
// second or two each: the small preset cut at day 200, merge at day 100.
func tinyWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		w.config = func(seed int64) gen.Config {
			c := gen.SmallConfig()
			c.Seed, c.Days = seed, 200
			c.Merge.Day, c.Merge.FiveQStart = 100, 40
			return c
		}
		w.minOps, w.setups = 1, 1
		if w.appendDays > 0 {
			w.appendDays = 4
		}
		out = append(out, w)
	}
	return out
}

// zeroAtTinyScale are per-layer metrics that may read 0 on every tiny
// workload: no frame is ever read twice in one pass, and four appended
// days may write only delta checkpoints.
var zeroAtTinyScale = map[string]bool{
	"trace.frame_cache_hit_ratio": true,
	"checkpoint.delta_ratio":      true,
}

// TestSmokeAllWorkloads runs every workload in-process at tiny scale,
// untraced and traced, and checks that each run is correct, reports
// exactly the metrics BENCHMARK.json defines for its mode, and that every
// per-layer metric is measured by some workload.
func TestSmokeAllWorkloads(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range tinyWorkloads() {
		dir := t.TempDir()
		input := filepath.Join(dir, "input")
		if _, err := w.generate(input, 1); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			e := &runEnv{
				w: w, seconds: 300 * time.Millisecond, traced: traced,
				input: input, scratch: t.TempDir(), pairs: 1,
			}
			if traced {
				e.spans = newSpanLog()
			}
			out, err := runWorkload(context.Background(), e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("%s traced=%v: problems %v, %d of %d ops failed", w.name, traced, out.problems, out.failed, out.attempted)
			}
			if !traced {
				out.metrics["peak_rss_mb"] = 1 // runChild adds it after the run
			}
			if err := def.complete(out.metrics, traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			for name, v := range out.metrics {
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, v)
				}
				if v != 0 {
					measured[name] = true
				}
			}
			if traced {
				path := filepath.Join(t.TempDir(), "spans.json")
				if err := e.spans.write(path, w.name, 1); err != nil {
					t.Fatal(err)
				}
				if len(e.spans.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
		}
	}
	for _, m := range def.PerLayer {
		if !measured[m.Name] && !zeroAtTinyScale[m.Name] {
			t.Errorf("per-layer %s is 0 on every workload", m.Name)
		}
	}
}

func TestResultLine(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	r := runRecord{Workload: "serve-read", Correct: true, Attempted: 3, Metrics: map[string]float64{"setup_s": 1.25}}
	if err := printResult(&b, def, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "serve-read setup_s 1.25 s" {
		t.Errorf("metric line = %q", lines[0])
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line keys = %v, want exactly correct, attempted, failed, metrics", got)
	}
	if string(got["metrics"]) != `{"setup_s":{"value":1.25,"unit":"s"}}` {
		t.Errorf("metrics = %s", got["metrics"])
	}
}

func TestPeakRSS(t *testing.T) {
	mb, err := peakRSS()
	if err != nil || mb <= 0 {
		t.Errorf("peakRSS() = %v, %v; want a positive size", mb, err)
	}
}

func TestCommittedDigests(t *testing.T) {
	all, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for w, bySeed := range all {
		if _, ok := workloadByName(w); !ok {
			t.Errorf("digests.json names unknown workload %q", w)
		}
		for seed, d := range bySeed {
			if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
				t.Errorf("%s seed %s: %q is not a SHA-256 digest", w, seed, d)
			}
		}
	}
}

// TestDefinitionMatchesWorkloads keeps BENCHMARK.json and the workload
// table in step, and holds the file to the limits its readers rely on.
func TestDefinitionMatchesWorkloads(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, w.Name, workloads[i].name)
		}
	}
	setup := false
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
}
