// Package engine is the single-pass streaming analysis engine: the trace is
// replayed exactly once through a shared trace.State, and every analysis
// subscribes as a Stage fed from that one pass. Independent computations
// that cannot share the pass (the δ-sweep's per-δ community pipelines, the
// SVM merge-prediction evaluation) fan out across a bounded worker Pool
// instead of running serially.
//
// The engine exists because the paper's pipeline is inherently one pass over
// a timestamped creation stream: every analysis consumes the same events in
// the same order and differs only in what it accumulates. Replaying the
// trace once and dispatching to subscribed stages removes the redundant
// graph rebuilds a pass per analysis would pay for (see DESIGN.md §4).
package engine

import (
	"context"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Stage is one analysis subscribed to the engine's single replay pass.
// OnEvent fires for every trace event, in trace order; OnDayEnd fires at
// every day boundary (including empty days); Finish runs after the pass
// completes, in subscription order, and is where a stage assembles its
// result or reports that the trace cannot support it.
//
// The contract, the same at every CPU budget:
//
//   - OnEvent runs at the day barrier: the engine replays the day's
//     events to the stage after the whole day has been applied, so st is
//     the end-of-day state, not the per-event prefix. OnEvent must not
//     read it; it touches only the stage's own accumulators.
//   - OnDayEnd follows the day's OnEvent calls and may read the shared
//     state freely: at the barrier it is quiescent.
//   - Stages must not mutate the shared state, and share no mutable state
//     with each other: one stage's day work may run on a pool goroutine,
//     concurrently with another's. The engine calls each stage's own
//     callbacks from one goroutine at a time, in trace order, with a
//     happens-before edge between days, so a stage needs no locking.
type Stage interface {
	Name() string
	OnEvent(st *trace.State, ev trace.Event)
	OnDayEnd(st *trace.State, day int32)
	Finish(st *trace.State) error
}

// Syncer is an optional Stage extension for stages that fan concurrent
// per-snapshot work out against a frozen view of the shared state (the
// δ-sweep's community.SweepStage). The engine calls Sync after every day's
// OnDayEnd callbacks and before the next day's events mutate the shared
// graph — the per-snapshot barrier: a stage joins tasks still in flight
// from its previous snapshot there, then freezes the state and fans the
// next snapshot out, so replay never runs more than one snapshot ahead of
// the slowest worker.
//
// ctx is the run's context; a blocking barrier wait must honor its
// cancellation and return ctx.Err(). Any non-nil error from Sync cancels
// the replay at the current day boundary (no further events are applied,
// no stage Finish runs) and is returned by the engine.
type Syncer interface {
	Sync(ctx context.Context, st *trace.State, day int32) error
}

// Checkpointer is the optional Stage extension of the checkpointed state
// plane (DESIGN.md §6): a stage that can externalize its accumulator
// state. SaveState serializes everything the stage has accumulated up to
// (and including) the current day boundary; LoadState is its inverse,
// called on a freshly constructed stage before a resumed replay with the
// bytes one SaveState wrote. LoadState must not retain data, which the
// caller keeps and may hand to the next restore. The
// contract is bit-exactness: a stage restored from SaveState output and
// fed the remaining days must end in exactly the state a from-zero run
// reaches — including any RNG it owns.
//
// SaveState runs at the engine's Sync barrier on the replay goroutine; a
// stage with in-flight fan-out (the δ-sweep) must join its tasks before
// serializing.
type Checkpointer interface {
	SaveState(w io.Writer) error
	LoadState(data []byte) error
}

// CheckpointFunc writes one checkpoint of the run: st is the shared state
// at the end of `day`, quiescent until the function returns. The engine
// calls it at the Sync barrier — after every stage's OnDayEnd and Sync
// for that day, before the next day's events mutate the shared graph. A
// non-nil error aborts the replay at that boundary, exactly like a Sync
// error.
type CheckpointFunc func(day int32, st *trace.State) error

// Engine composes subscribed stages over one replay pass.
type Engine struct {
	stages   []Stage
	nodeHint int
	edgeHint int
	pool     *Pool

	ckptEvery int32
	ckptFn    CheckpointFunc
}

// New returns an empty engine with default state-capacity hints.
func New() *Engine {
	return &Engine{nodeHint: 1024, edgeHint: 4096}
}

// Hint sets capacity hints for the shared state, typically from the
// trace's Meta counters, so the node-indexed structures (the graph's
// top-level adjacency index, the per-node day and origin columns) are
// allocated once instead of grown by repeated doubling during the pass.
// The edge hint is forwarded to trace.NewState for parity with its
// signature; per-node adjacency lists still grow on demand.
func (e *Engine) Hint(nodes, edges int) {
	if nodes > 0 {
		e.nodeHint = nodes
	}
	if edges > 0 {
		e.edgeHint = edges
	}
}

// SetPool gives the engine the run's CPU budget. The stages' per-day work
// fans out on it at each day barrier (see driver); no pool, or a budget
// of one — the default — runs that work inline. With a budget of more
// than one token the source is also wrapped in trace.Prefetch, so decode
// runs ahead of apply on a reader goroutine. Either way every figure is
// bit-identical: the driver preserves each stage's own event order and
// the barrier keeps Sync/checkpoint semantics unchanged, so the budget is
// a throughput knob, never a result knob (and is deliberately absent from
// the checkpoint fingerprint — checkpoints written at one worker count
// resume at any other).
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// SetWorkers gives the engine a budget of its own, shared with no other
// fan-out of the run.
//
// Deprecated: use SetPool with the run's one Pool. Kept only because the
// benchmark harness still builds against it.
func (e *Engine) SetWorkers(n int) { e.pool = NewPool(n) }

// Subscribe registers stages; callbacks and Finish run in subscription
// order, so a stage that reads another's result must subscribe after it.
func (e *Engine) Subscribe(stages ...Stage) {
	e.stages = append(e.stages, stages...)
}

// Stages returns the number of subscribed stages, letting callers skip the
// replay pass entirely when nothing is listening.
func (e *Engine) Stages() int { return len(e.stages) }

// Subscribed returns the subscribed stages in subscription order. The
// checkpoint plane uses it to pair each stage with its serialized blob.
func (e *Engine) Subscribed() []Stage {
	return append([]Stage(nil), e.stages...)
}

// EnableCheckpoints arms the checkpoint hook: at every day boundary whose
// day is a positive multiple of `every`, fn runs at the Sync barrier with
// the quiescent shared state, and once more at the last replayed day
// after the pass completes (before any stage Finish) — the end-of-run
// checkpoint an incremental workflow resumes from, so a later run over a
// grown trace replays exactly the appended days. Arming checkpoints
// makes hidden stage state an error: every subscribed stage must
// implement Checkpointer or the run refuses to start — a checkpoint that
// silently omitted a stage would resume into wrong results.
func (e *Engine) EnableCheckpoints(every int32, fn CheckpointFunc) {
	e.ckptEvery = every
	e.ckptFn = fn
}

// RunSourceContext replays src exactly once — one cursor — dispatching
// every callback to all subscribed stages, then finishes each stage in
// subscription order; the first stage error aborts with the stage's name
// wrapped in. With a disk-backed trace.FileSource the engine's resident
// memory is the shared State plus the stages' accumulators — O(state),
// independent of the trace's event count.
//
// The replay checks ctx at every day boundary and, once cancelled, no
// stage Finish runs — the pass aborts with ctx.Err() and the partially
// built state. A nil ctx disables the checks (unless a subscribed Syncer
// or the checkpoint hook needs the abort machinery, in which case an
// internal background context stands in).
func (e *Engine) RunSourceContext(ctx context.Context, src trace.Source) (*trace.State, error) {
	return e.run(ctx, src, trace.NewState(e.nodeHint, e.edgeHint), 0)
}

// ResumeSourceContext continues a replay from a restored checkpoint: st
// must be the shared state at the end of day `day` (a checkpoint.Chain's
// State, or the previous pass's end state) and every subscribed stage must already have been restored via
// LoadState. The replay opens the source at day+1 — a day-indexed
// FileSource seeks straight there — and fires day boundaries from day+1
// on, so nothing that happened up to the checkpoint is re-observed.
func (e *Engine) ResumeSourceContext(ctx context.Context, src trace.Source, st *trace.State, day int32) (*trace.State, error) {
	return e.run(ctx, src, st, day+1)
}

// run is the pass behind RunSourceContext and ResumeSourceContext: one
// trace.ReplayFrom loop driven by one driver, then the end-of-run
// checkpoint and every stage's Finish.
func (e *Engine) run(ctx context.Context, src trace.Source, st *trace.State, fromDay int32) (*trace.State, error) {
	if e.ckptFn != nil {
		for _, s := range e.stages {
			if _, ok := s.(Checkpointer); !ok {
				return st, fmt.Errorf("engine: checkpointing enabled but stage %s does not implement Checkpointer", s.Name())
			}
		}
	}
	d := e.newDriver(fromDay)
	if len(d.syncers) > 0 || e.ckptFn != nil {
		// A barrier error cancels the run's context, which stops the
		// replay at this day boundary: the shared graph is never mutated
		// past a failed barrier.
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		d.ctx, d.cancel = ctx, cancel
	}
	if e.pool.Workers() > 1 {
		// Pipelined data plane: decode day-batches ahead of the apply
		// loop. EventsThrough-style identity probes ran before this point
		// against the raw source, and the wrapper preserves event order
		// and error positions exactly (see trace.Prefetch).
		src = trace.Prefetch(src)
	}
	err := trace.ReplayFrom(ctx, st, src, trace.Hooks{OnEvent: d.onEvent, OnDayEnd: d.onDayEnd}, fromDay)
	if d.err != nil {
		return st, d.err
	}
	if err != nil {
		return st, err
	}
	// The end-of-run checkpoint: the state as of the last replayed day,
	// written before any Finish (Finish seals results but must never
	// count as replay state). A resume that replayed nothing new skips
	// it — the checkpoint it restored is already that state.
	if err := d.checkpoint(st, st.Day); err != nil {
		return st, err
	}
	for _, s := range e.stages {
		if err := s.Finish(st); err != nil {
			return st, fmt.Errorf("%s: %w", s.Name(), err)
		}
	}
	return st, nil
}
