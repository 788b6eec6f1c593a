package engine

import (
	"repro/internal/trace"
)

// Overlappable marks a Stage whose per-day work the engine may run on a
// worker goroutine, concurrently with other Overlappable stages, when the
// engine's budget has more than one token (Engine.SetPool).
//
// The contract a marked stage must satisfy:
//
//   - OnEvent touches only the stage's own accumulators. It must not read
//     the shared trace.State at all: in parallel mode the engine replays a
//     whole day's events to the stage at the day barrier, when the state
//     already reflects the full day, not the per-event prefix a
//     sequential pass would show.
//   - OnDayEnd may read the shared state freely — at the barrier it is
//     quiescent and exactly the end-of-day state, same as sequentially —
//     but must not mutate it (already the engine-wide Stage contract).
//   - No shared mutable state with other stages. The engine still calls
//     each stage's own callbacks from one goroutine at a time, in trace
//     order, with a happens-before edge between days, so the stage itself
//     needs no locking.
//
// Because each stage sees its own events in exactly the sequential order
// and stages are mutually independent until Finish (which runs post-pass,
// sequentially, in subscription order), results are bit-identical to the
// sequential driver no matter how the per-day tasks interleave.
type Overlappable interface {
	OverlapSafe()
}

// parallelDriver is the concurrent day-batch dispatcher behind a budget
// of more than one token: unmarked stages run inline on the replay
// goroutine exactly as in the sequential driver (in subscription order,
// per event), while Overlappable stages' per-day work — the day's OnEvent
// replay plus OnDayEnd — fans out on the run's Pool at each day boundary
// and joins before the day-end returns. The engine's barrier hooks (Sync,
// checkpoints) subscribe after this driver, so they always observe every
// stage's day work complete and the shared state quiescent.
type parallelDriver struct {
	inline   []Stage
	deferred []Stage
	pool     *Pool
	batch    []trace.Event
}

// newParallelDriver partitions stages by the Overlappable marker. With
// fewer than two marked stages there is nothing to overlap — every stage
// runs inline and the driver degenerates to the sequential dispatch (the
// pipelined decode of trace.Prefetch still applies).
func newParallelDriver(stages []Stage, pool *Pool) *parallelDriver {
	p := &parallelDriver{pool: pool}
	for _, s := range stages {
		if _, ok := s.(Overlappable); ok {
			p.deferred = append(p.deferred, s)
		} else {
			p.inline = append(p.inline, s)
		}
	}
	if len(p.deferred) < 2 {
		p.inline = append([]Stage(nil), stages...) // keep subscription order
		p.deferred = nil
	}
	return p
}

// hooks returns the driver's replay subscription.
func (p *parallelDriver) hooks() trace.Hooks {
	return trace.Hooks{OnEvent: p.onEvent, OnDayEnd: p.onDayEnd}
}

// onEvent dispatches to inline stages immediately and buffers the event
// for the deferred stages' day-batch replay.
func (p *parallelDriver) onEvent(st *trace.State, ev trace.Event) {
	for _, s := range p.inline {
		s.OnEvent(st, ev)
	}
	if p.deferred != nil {
		p.batch = append(p.batch, ev)
	}
}

// onDayEnd is the day barrier: the deferred stages' day tasks — each
// replays the day's buffered events into its stage and runs its OnDayEnd —
// fan out on the pool (the replay goroutine runs its share, borrowed
// tokens run the rest) and join, and only then do the inline stages (and,
// by subscription order, the engine's Sync/checkpoint hooks) see the day
// end. Days with no events still fan the OnDayEnd work out, matching the
// sequential empty-day semantics.
func (p *parallelDriver) onDayEnd(st *trace.State, day int32) {
	if p.deferred != nil {
		batch := p.batch
		p.pool.Fan(len(p.deferred), func(_, i int) {
			s := p.deferred[i]
			for j := range batch {
				s.OnEvent(st, batch[j])
			}
			s.OnDayEnd(st, day)
		})
		p.batch = batch[:0] // the join makes the buffer reusable next day
	}
	for _, s := range p.inline {
		s.OnDayEnd(st, day)
	}
}
