// Package core is the paper's contribution assembled as a library: the
// multi-scale analysis pipeline. Given a dynamic-network trace it runs the
// network-level (§2), node-level (§3), community-level (§4), and
// network-merge (§5) analyses, and exposes every figure of the paper's
// evaluation as a data table (see figures.go and DESIGN.md's experiment
// index).
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/community"
	"repro/internal/evolution"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config selects and parameterizes the pipeline stages.
type Config struct {
	// MetricsEvery is the cadence (days) of degree/clustering/
	// assortativity measurements; PathEvery of sampled path length
	// (the paper computes path length every 3 days with 1000 sources;
	// the scaled defaults are 3 and 9/100).
	MetricsEvery int32
	PathEvery    int32
	// PathSources is the number of BFS sources for path length.
	PathSources int
	// ClusteringSamples is the node sample size for average clustering.
	ClusteringSamples int

	// Evolution and Alpha parameterize the §3 analyses.
	Evolution evolution.Options
	Alpha     evolution.AlphaOptions

	// Community parameterizes the §4 pipeline; DeltaSweep lists the δ
	// values for Fig 4 (empty = skip the sweep).
	Community  community.Options
	DeltaSweep []float64

	// Merge parameterizes the §5 analysis.
	Merge osnmerge.Options

	// Seed for sampled metrics.
	Seed int64

	// Workers is the run's CPU budget: at most Workers goroutines run
	// analysis work at once, the replay goroutine included. The δ-sweep
	// and SVM tasks, the engine's day-batch dispatch, and the
	// sampled-BFS lane batches all draw on it (engine.Pool); above 1 the
	// decode-ahead reader runs beside them. <= 0 selects GOMAXPROCS; 1
	// runs everything sequentially on the caller's goroutine. It is a throughput knob, never a result knob:
	// every figure is bit-identical at any setting
	// (TestParallelWorkersMatch), and Workers is deliberately excluded
	// from the checkpoint fingerprint, so checkpoints written at one
	// worker count resume at any other.
	Workers int

	// OnProgress, when non-nil, is invoked at every day boundary of the
	// shared streaming pass with the finished day and the cumulative
	// number of events applied. Since the δ-sweep also rides the shared
	// pass, this observes the whole run's replay. It fires once per day,
	// in day order, one call at a time, but may run on a pool goroutine
	// rather than the caller's. It must not block: the day barrier waits
	// for it.
	OnProgress func(day int32, events int64)

	// CheckpointDir enables the checkpointed state plane (DESIGN.md §6):
	// when non-empty, RunPlan writes a checkpoint of the shared state and
	// every streaming stage's accumulators into this directory every
	// CheckpointEvery days at the engine's Sync barrier, plus one at the
	// last replayed day — the end-of-run checkpoint an incremental
	// workflow resumes from after the trace gains days.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in days; <= 0 defaults to
	// 90 when CheckpointDir is set.
	CheckpointEvery int32
	// CheckpointFullEvery is the tiered-storage cadence: of every N
	// checkpoints, the first is full and the following N-1 are deltas
	// against their predecessor — changed stage blobs plus the appended
	// graph only. <= 1 writes only full checkpoints
	// (the historic behavior). Like every storage knob it is excluded
	// from the compatibility fingerprint: full and delta checkpoints of
	// the same run interoperate freely.
	CheckpointFullEvery int
	// CheckpointKeep bounds retention: after each checkpoint write, all
	// but the newest N full checkpoints under this run's fingerprint
	// (plus the deltas chained above the oldest kept full) are deleted
	// from the backend. <= 0 keeps everything. Checkpoints written under
	// other fingerprints are never touched.
	CheckpointKeep int
	// CheckpointBackend overrides where checkpoints are written and
	// resolved from; nil uses a DirBackend rooted at CheckpointDir. An
	// explicit backend makes CheckpointDir optional.
	CheckpointBackend storage.Backend
	// CheckpointObserver, when non-nil, is invoked after every
	// successful checkpoint write with the written object's stats — the
	// serving daemon's /statz storage section hangs off it. Called on
	// the replay goroutine; it must not block.
	CheckpointObserver func(CheckpointStat)
	// Resume makes RunPlan restore the latest compatible checkpoint in
	// CheckpointDir — same stage set and config fingerprint, checkpoint
	// day within the trace — and replay only the days after it. Any
	// mismatch (different knobs, different stage plan, corrupt or
	// truncated file) falls back cleanly to a from-zero replay; resumed
	// or not, the figure tables are bit-identical
	// (TestResumeMatchesFromZero).
	Resume bool
}

// DefaultConfig mirrors the paper's parameters at the scaled sizes.
func DefaultConfig() Config {
	cm := community.DefaultOptions()
	return Config{
		MetricsEvery:      3,
		PathEvery:         9,
		PathSources:       100,
		ClusteringSamples: 1000,
		Evolution:         evolution.DefaultOptions(),
		Alpha:             evolution.AlphaOptions{Interval: 5000, MinEdges: 10000, PolyDegree: 5},
		Community:         cm,
		Merge:             osnmerge.DefaultOptions(),
		Seed:              1,
	}
}

// ParseDeltaSweep parses a comma-separated δ list — the textual form of
// Config.DeltaSweep used by the CLIs' -deltas flags. The values are
// Louvain modularity-gain thresholds, so each must be a positive finite
// number; duplicates are rejected too (a repeated δ would silently run
// the same detection twice and emit duplicate Fig 4 series).
func ParseDeltaSweep(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("empty δ list")
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad δ value %q: %v", f, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("δ value %q out of range: must be a positive finite threshold", f)
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate δ value %v", v)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseDistDays parses a comma-separated list of size-distribution days —
// the textual form of Config.Community.SizeDistDays used by the CLIs'
// -dist-days flags. An empty list selects the default: three late days of
// a trace `days` long (days/2, 3·days/4 and the last day), each snapped
// down onto opt's snapshot grid. The days enter the checkpoint
// fingerprint, so every CLI derives them here and they agree.
func ParseDistDays(s string, days int32, opt community.Options) ([]int32, error) {
	if s != "" {
		var out []int32
		for _, d := range strings.Split(s, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(d), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad dist day %q: %v", d, err)
			}
			out = append(out, int32(v))
		}
		return out, nil
	}
	if days <= 0 {
		return nil, nil
	}
	snap := func(d int32) int32 {
		if d < opt.StartDay {
			return opt.StartDay
		}
		return d - (d-opt.StartDay)%opt.SnapshotEvery
	}
	return []int32{snap(days / 2), snap(days * 3 / 4), snap(days - 1)}, nil
}

// GrowthDay is one day of the Fig 1a/1b series.
type GrowthDay = metrics.GrowthDay

// DeltaRun is one δ value's community pipeline outcome (Fig 4).
type DeltaRun struct {
	Delta float64
	Stats []community.SnapshotStat
	// SizeDist is the community size distribution at the sweep's
	// distribution day.
	SizeDist []int
}

// MergeAccuracy is the overall Fig 6b merge-prediction evaluation: held-out
// accuracy over N samples, split by class. It is a named type (not an
// anonymous struct) so callers can carry it through their own signatures.
type MergeAccuracy struct {
	PosAccuracy, NegAccuracy, Accuracy float64
	N                                  int
}

// Result is the full multi-scale analysis output.
type Result struct {
	Meta trace.Meta

	Growth  []GrowthDay
	Metrics []metrics.Snapshot

	Evolution *evolution.Result
	Alpha     *evolution.AlphaResult

	Community *community.Result
	Users     *community.UserImpact
	// MergeBins and MergeOverall are the Fig 6b evaluation.
	MergeBins    []community.AgeBinAccuracy
	MergeOverall MergeAccuracy
	DeltaSweep   []DeltaRun

	Merge *osnmerge.Result

	// ResumedFromDay is the checkpoint day this run resumed from, or -1
	// when it replayed from day 0 (no checkpointing, no compatible
	// checkpoint, or Config.Resume unset).
	ResumedFromDay int32
	// ResumedInMemory reports that the run continued from the previous
	// pass's end state (a ResumeHandle given to ContinueFigures) instead
	// of reading the checkpoint at ResumedFromDay back from the backend.
	ResumedInMemory bool

	// tables is the keyed figure store: panels pre-emitted by a
	// demand-driven run (RunPlan/RunFigures) or by Seal, served by Figure
	// without re-emitting. tableErrs is its error side, filled by Seal so
	// a sealed Result never runs an emitter (see Seal's concurrency
	// contract).
	tables    map[string]*Table
	tableErrs map[string]error
}

// ErrEmptyTrace is returned for traces with no events.
var ErrEmptyTrace = errors.New("core: empty trace")

// withDefaults fills the paper's scaled defaults into zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if cfg.MetricsEvery <= 0 {
		cfg.MetricsEvery = 3
	}
	if cfg.PathEvery <= 0 {
		cfg.PathEvery = 9
	}
	if cfg.PathSources <= 0 {
		cfg.PathSources = 100
	}
	if cfg.ClusteringSamples <= 0 {
		cfg.ClusteringSamples = 1000
	}
	return cfg
}

// applyMergePrediction trains and evaluates the Fig 6b SVM merge predictor
// over a community result and copies the outcome into res. Evaluation
// errors (e.g. a dataset too small to split) leave the result fields empty;
// the figure then reports ErrStageSkipped, matching the pipeline's historic
// behavior.
func applyMergePrediction(res *Result, cr *community.Result, mergeDay int32, seed int64) {
	ds := community.BuildMergeDataset(cr, mergeDay)
	bins, overall, err := community.EvaluateMergePrediction(ds, 10, svmOptions(seed))
	if err != nil {
		return
	}
	res.MergeBins = bins
	res.MergeOverall = MergeAccuracy{
		PosAccuracy: overall.PosAccuracy,
		NegAccuracy: overall.NegAccuracy,
		Accuracy:    overall.Accuracy,
		N:           overall.N,
	}
}
