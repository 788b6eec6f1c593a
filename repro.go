// Package repro is the public facade of the reproduction of "Multi-scale
// Dynamics in a Massive Online Social Network" (Zhao et al., IMC 2012).
//
// The three calls most users need:
//
//	tr, _ := repro.Generate(repro.DefaultGenConfig())                      // synthetic Renren+5Q trace
//	res, _ := repro.RunPlan(ctx, tr.Source(), repro.DefaultPipeline(), nil) // multi-scale analysis
//	tab, _ := res.Figure("fig3c")                                          // any panel of the paper
//
// RunFigures runs only the stages a given set of panels needs.
//
// See DESIGN.md for the experiment index and the internal packages for the
// full API surface: gen (trace generator), trace (event schema and codec),
// graph/metrics/louvain/tracking/svm/powerlaw/stats (substrates), and
// evolution/community/osnmerge/core (the paper's analyses).
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trace"
)

// Re-exported types.
type (
	// Trace is a timestamped node/edge creation stream (the dataset).
	Trace = trace.Trace
	// Event is one creation event.
	Event = trace.Event
	// Meta summarizes a trace (counts, merge day, seed).
	Meta = trace.Meta
	// Source is a re-openable event stream — the data plane every
	// analysis consumes; SliceSource, TraceSource, and FileSource are the
	// in-memory and on-disk implementations.
	Source = trace.Source
	// MetaSource is a Source that knows its Meta without a pass.
	MetaSource = trace.MetaSource
	// GenConfig configures the synthetic trace generator.
	GenConfig = gen.Config
	// Pipeline configures the multi-scale analysis.
	Pipeline = core.Config
	// Result is the full analysis output.
	Result = core.Result
	// Table is one figure panel's data.
	Table = core.Table
	// FigurePlan is a resolved, dependency-closed stage set — the unit of
	// execution of the demand-driven pipeline.
	FigurePlan = core.FigurePlan
	// StageSpec describes one registered analysis stage (name, figures,
	// dependencies).
	StageSpec = core.StageSpec
	// MergeAccuracy is the overall Fig 6b merge-prediction evaluation.
	MergeAccuracy = core.MergeAccuracy
)

// AllFigures lists every reproducible figure panel id.
var AllFigures = core.AllFigures

// Figure-lookup errors, re-exported for errors.Is.
var (
	// ErrUnknownFigure is returned for ids outside AllFigures.
	ErrUnknownFigure = core.ErrUnknownFigure
	// ErrStageSkipped is returned when a figure's stage did not run.
	ErrStageSkipped = core.ErrStageSkipped
)

// DefaultGenConfig returns the scaled default Renren+5Q scenario
// (771 days, merge on day 386, ≈10^5 nodes).
func DefaultGenConfig() GenConfig { return gen.DefaultConfig() }

// SmallGenConfig returns a quick scenario for tests and demos.
func SmallGenConfig() GenConfig { return gen.SmallConfig() }

// LargeGenConfig returns the million-node out-of-core scenario; pair it
// with GenerateToFile + OpenTraceFile + RunPlan so the event stream
// lives on disk, not in memory.
func LargeGenConfig() GenConfig { return gen.LargeConfig() }

// Generate produces a synthetic trace in memory.
func Generate(cfg GenConfig) (*Trace, error) { return gen.Generate(cfg) }

// GenerateToFile streams a synthetic trace straight to disk in the binary
// trace format, never materializing the event slice, and returns its Meta.
func GenerateToFile(cfg GenConfig, path string) (Meta, error) {
	return gen.GenerateToFile(cfg, path)
}

// OpenTraceFile validates a trace file's header — flat or segmented —
// and returns a re-openable source that replays it off disk with
// O(state) memory.
func OpenTraceFile(path string) (MetaSource, error) {
	fs, err := trace.OpenTrace(path)
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// DefaultPipeline returns the paper's analysis parameters at scaled sizes.
func DefaultPipeline() Pipeline { return core.DefaultConfig() }

// Plan resolves the minimal dependency-closed stage set that produces the
// requested figure panels; unknown ids fail at plan time with
// ErrUnknownFigure. With no ids the plan is every registered stage.
func Plan(cfg Pipeline, figures ...string) (*FigurePlan, error) {
	return core.Plan(cfg, figures...)
}

// RunPlan executes a resolved plan over a source on the single-pass
// streaming engine: every analysis — the δ-sweep included — shares one
// replay and one live graph (see DESIGN.md §4). A nil plan runs every
// stage. With a source from OpenTraceFile the pipeline replays straight
// off disk, and the only O(events) artifact is the file itself. ctx is
// checked at every day boundary of the shared pass (including the
// δ-sweep's per-snapshot barrier); a cancelled run returns ctx's error and
// no Result.
func RunPlan(ctx context.Context, src MetaSource, cfg Pipeline, plan *FigurePlan) (*Result, error) {
	return core.RunPlan(ctx, src, cfg, plan)
}

// RunFigures is the demand-driven entry point: it plans and runs exactly
// the stages the requested panels need, so serving one figure pays for one
// figure's analyses, not all 30.
//
//	res, _ := repro.RunFigures(ctx, tr.Source(), cfg, "fig3c")
//	tab, _ := res.Figure("fig3c")
func RunFigures(ctx context.Context, src MetaSource, cfg Pipeline, figures ...string) (*Result, error) {
	return core.RunFigures(ctx, src, cfg, figures...)
}

// Registry returns the registered stage specs in execution order — the
// figure id → stage mapping.
func Registry() []StageSpec { return core.Registry() }

// StageFor returns the name of the stage that produces the figure id.
func StageFor(id string) (string, error) { return core.StageFor(id) }

// Validate checks the structural invariants of an in-memory trace. It is a
// thin wrapper over ValidateSource.
func Validate(events []Event) error { return trace.ValidateSource(trace.SliceSource(events)) }

// ValidateSource checks the structural invariants of a trace streamed from
// a re-openable source — with a source from OpenTraceFile the on-disk
// trace is validated in one pass without materializing the event slice.
func ValidateSource(src Source) error { return trace.ValidateSource(src) }
