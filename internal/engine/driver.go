package engine

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// Overlappable marks a Stage whose per-day work the engine may run on a
// worker goroutine, concurrently with other Overlappable stages, when the
// engine's budget has more than one token (Engine.SetPool).
//
// The contract a marked stage must satisfy:
//
//   - OnEvent touches only the stage's own accumulators. It must not read
//     the shared trace.State at all: at a budget above one the engine
//     replays a whole day's events to the stage at the day barrier, when
//     the state already reflects the full day, not the per-event prefix
//     a budget of one would show.
//   - OnDayEnd may read the shared state freely — at the barrier it is
//     quiescent and exactly the end-of-day state at any budget —
//     but must not mutate it (already the engine-wide Stage contract).
//   - No shared mutable state with other stages. The engine still calls
//     each stage's own callbacks from one goroutine at a time, in trace
//     order, with a happens-before edge between days, so the stage itself
//     needs no locking.
//
// Because each stage sees its own events in exactly the sequential order
// and stages are mutually independent until Finish (which runs post-pass,
// sequentially, in subscription order), results are bit-identical at
// every budget no matter how the per-day tasks interleave.
type Overlappable interface {
	OverlapSafe()
}

// driver is the engine's one dispatch path: the hooks the replay loop
// calls for one pass. Inline stages see every event as it is applied, in
// subscription order. With a budget of more than one token and at least
// two Overlappable stages, those stages are deferred instead: their
// events are buffered, and at each day boundary the day's replay into
// each of them (plus its OnDayEnd) fans out on the run's Pool. A budget
// of one defers nothing and runs the same code.
//
// At a day end the driver runs, in order: the deferred fan-out (joined),
// the inline stages' OnDayEnd, every Syncer's Sync, and the checkpoint
// cadence — so the barrier always sees every stage's day work complete
// and the shared state quiescent.
type driver struct {
	inline   []Stage
	deferred []Stage // nil unless at least two stages overlap
	syncers  []Syncer
	pool     *Pool
	batch    []trace.Event // the day's events, for the deferred stages

	// ctx is the run's context, handed to Sync; nil when no barrier hook
	// is armed. A barrier error is recorded in err and cancels ctx, which
	// stops the replay at this day boundary.
	ctx    context.Context
	cancel context.CancelFunc
	err    error

	ckptEvery int32 // 0 when checkpoints are off
	ckptFn    CheckpointFunc
	// lastCkpt dedupes the cadence against the end-of-run checkpoint, and
	// keeps a resumed pass from rewriting the checkpoint it was restored
	// from.
	lastCkpt int32
}

// newDriver partitions the engine's stages for a pass starting at
// fromDay.
func (e *Engine) newDriver(fromDay int32) *driver {
	d := &driver{pool: e.pool, lastCkpt: fromDay - 1}
	if e.ckptFn != nil && e.ckptEvery > 0 {
		d.ckptEvery, d.ckptFn = e.ckptEvery, e.ckptFn
	}
	parallel := e.pool.Workers() > 1
	for _, s := range e.stages {
		if _, ok := s.(Overlappable); ok && parallel {
			d.deferred = append(d.deferred, s)
		} else {
			d.inline = append(d.inline, s)
		}
		if y, ok := s.(Syncer); ok {
			d.syncers = append(d.syncers, y)
		}
	}
	if len(d.deferred) < 2 {
		// Nothing to overlap: every stage runs inline, in subscription
		// order.
		d.inline, d.deferred = append([]Stage(nil), e.stages...), nil
	}
	return d
}

// onEvent dispatches to inline stages immediately and buffers the event
// for the deferred stages' day-batch replay.
func (d *driver) onEvent(st *trace.State, ev trace.Event) {
	for _, s := range d.inline {
		s.OnEvent(st, ev)
	}
	if d.deferred != nil {
		d.batch = append(d.batch, ev)
	}
}

// onDayEnd is the day barrier. The deferred stages' day tasks fan out on
// the pool (the replay goroutine runs its share, borrowed tokens run the
// rest) and join before anything else sees the day end. Days with no
// events still fan the OnDayEnd work out.
func (d *driver) onDayEnd(st *trace.State, day int32) {
	if d.deferred != nil {
		batch := d.batch
		d.pool.Fan(len(d.deferred), func(_, i int) {
			s := d.deferred[i]
			for j := range batch {
				s.OnEvent(st, batch[j])
			}
			s.OnDayEnd(st, day)
		})
		d.batch = batch[:0] // the join makes the buffer reusable next day
	}
	for _, s := range d.inline {
		s.OnDayEnd(st, day)
	}
	for _, y := range d.syncers {
		if err := y.Sync(d.ctx, st, day); err != nil {
			d.fail(err)
			return
		}
	}
	if d.ckptEvery > 0 && day%d.ckptEvery == 0 && d.ctx.Err() == nil {
		if err := d.checkpoint(st, day); err != nil {
			d.fail(err)
		}
	}
}

// checkpoint writes the checkpoint of day unless checkpoints are off or
// one was already written (or restored) for day or later. Day 0 is never
// checkpointed: there is nothing to resume from.
func (d *driver) checkpoint(st *trace.State, day int32) error {
	if d.ckptEvery == 0 || day <= 0 || day <= d.lastCkpt {
		return nil
	}
	if err := d.ckptFn(day, st); err != nil {
		return fmt.Errorf("engine: checkpoint at day %d: %w", day, err)
	}
	d.lastCkpt = day
	return nil
}

// fail records the pass's first barrier error and cancels the run.
func (d *driver) fail(err error) {
	if d.err == nil {
		d.err = err
		d.cancel()
	}
}
