package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// workers is the worker budget of every analysis the benchmark runs. The
// host the benchmark was defined on has 2 CPUs and all load comes from
// one process, so 2 is the count that can use the whole host.
const workers = 2

// Input file names inside a workload's input directory.
const (
	traceName    = "trace"
	extendedName = "extended.trace"
)

type kind int

const (
	replayKind kind = iota
	serveReadKind
	serveIngestKind
)

// workload is one set of generated inputs and the way the benchmark drives
// the program with them. BENCHMARK.json says why each exists.
type workload struct {
	name string
	kind kind
	// config is the generator configuration for a seed.
	config func(seed int64) gen.Config
	// segmented writes the trace as a compressed RRS1 container.
	segmented bool
	// figures restricts the analysis plan to these panels; nil runs all.
	figures []string
	// appendDays is how many days serve-ingest appends while measuring.
	appendDays int
	// minOps is the fewest analyses a replay run times, however long
	// they take.
	minOps int
	// setups is how many times a run repeats its set-up (a replay run:
	// before each analysis); the median is reported, so that one slow
	// start does not move the number.
	setups int
}

// streamFigures are the panels of the per-event stages only (evolution,
// alpha, osnmerge): no snapshot, Louvain or BFS work runs for them.
var streamFigures = []string{
	"fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c",
	"fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
}

// workloads is the benchmark's workload table. The sizes are chosen so one
// run of any workload, generation and set-up included, ends in under 30 s
// on a 2-CPU host: the whole paired comparison of two commits has to fit
// in under an hour.
var workloads = []workload{
	{
		// The default Renren preset cut at day 480, past the merge: every
		// stage runs and the snapshot analyses dominate.
		name: "replay-full",
		kind: replayKind,
		config: func(seed int64) gen.Config {
			c := gen.DefaultConfig()
			c.Seed, c.Days = seed, 480
			return c
		},
		minOps: 3,
		setups: 25,
	},
	{
		// The whole default preset, 10⁵ nodes and 9·10⁵ events: decode,
		// apply and the per-event accumulators dominate. The million-node
		// preset would show memory at scale, but one run of it takes a
		// minute, and a working set far past the last-level cache makes
		// its times swing with whatever else shares the host.
		name: "replay-stream",
		kind: replayKind,
		config: func(seed int64) gen.Config {
			c := gen.DefaultConfig()
			c.Seed = seed
			return c
		},
		segmented: true,
		figures:   streamFigures,
		minOps:    3,
		setups:    25,
	},
	{
		name:   "serve-read",
		kind:   serveReadKind,
		config: smallConfig,
		setups: 3,
	},
	{
		name:       "serve-ingest",
		kind:       serveIngestKind,
		config:     smallConfig,
		appendDays: 38,
		setups:     3,
	},
}

func smallConfig(seed int64) gen.Config {
	c := gen.SmallConfig()
	c.Seed = seed
	return c
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputInfo describes a run's generated inputs. GenS is information only:
// generation is not part of what the benchmark measures.
type inputInfo struct {
	Nodes  int64   `json:"nodes"`
	Edges  int64   `json:"edges"`
	Events int64   `json:"events"`
	Days   int32   `json:"days"`
	GenS   float64 `json:"gen_s"`
}

// generate writes the workload's inputs for seed into dir: the trace, and
// for serve-ingest also the same seed's trace extended by appendDays+1
// days, whose tail the run appends to a copy of the trace.
func (w workload) generate(dir string, seed int64) (inputInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputInfo{}, err
	}
	t0 := time.Now()
	cfg := w.config(seed)
	write := gen.GenerateToFile
	if w.segmented {
		write = gen.GenerateToSegFile
	}
	meta, err := write(cfg, filepath.Join(dir, traceName))
	if err != nil {
		return inputInfo{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	if w.appendDays > 0 {
		ext := cfg
		ext.Days += int32(w.appendDays) + 1
		if _, err := gen.GenerateToFile(ext, filepath.Join(dir, extendedName)); err != nil {
			return inputInfo{}, fmt.Errorf("generate %s extension: %w", w.name, err)
		}
	}
	return inputInfo{
		Nodes:  meta.Nodes,
		Edges:  meta.Edges,
		Events: meta.Nodes + meta.Edges,
		Days:   meta.Days,
		GenS:   time.Since(t0).Seconds(),
	}, nil
}

// analysisConfig is what `rranalyze -deltas 0.01,0.1 -workers 2` runs: the
// paper's defaults, the two-value δ-sweep, and size distributions at three
// late snapshot days of the trace.
func analysisConfig(meta trace.Meta) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.DeltaSweep = []float64{0.01, 0.1}
	c := cfg.Community
	cfg.Community.SizeDistDays = lateDays(meta.Days, c.StartDay, c.SnapshotEvery)
	return cfg
}

// lateDays is the CLIs' default -dist-days: days/2, 3·days/4 and the last
// day, each snapped down onto the snapshot grid.
func lateDays(days, start, every int32) []int32 {
	snap := func(d int32) int32 {
		if d < start {
			return start
		}
		return d - (d-start)%every
	}
	return []int32{snap(days / 2), snap(days * 3 / 4), snap(days - 1)}
}
