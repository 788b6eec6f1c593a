package engine

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// driver is the engine's one dispatch path: the hooks the replay loop
// calls for one pass. onEvent only buffers the day's events; at each day
// boundary the day's batch is replayed into every stage, followed by its
// OnDayEnd, one stage per item of a Pool.Fan. A budget of one runs the
// items inline, in subscription order; a larger budget runs them on
// borrowed tokens too. Each stage sees its own events in trace order at
// any budget, so results do not depend on it.
//
// At a day end the driver runs, in order: the stages' day work (joined),
// every Syncer's Sync, and the checkpoint cadence — so the barrier always
// sees every stage's day work complete and the shared state quiescent.
type driver struct {
	stages  []Stage
	syncers []Syncer
	pool    *Pool
	batch   []trace.Event // the day's events, replayed at the day end

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

// newDriver sets up the engine's stages for a pass starting at fromDay.
func (e *Engine) newDriver(fromDay int32) *driver {
	d := &driver{stages: e.stages, pool: e.pool, lastCkpt: fromDay - 1}
	if e.ckptFn != nil && e.ckptEvery > 0 {
		d.ckptEvery, d.ckptFn = e.ckptEvery, e.ckptFn
	}
	for _, s := range e.stages {
		if y, ok := s.(Syncer); ok {
			d.syncers = append(d.syncers, y)
		}
	}
	return d
}

// onEvent buffers the event for the day-batch replay.
func (d *driver) onEvent(_ *trace.State, ev trace.Event) {
	d.batch = append(d.batch, ev)
}

// onDayEnd is the day barrier. The stages' day tasks fan out on the pool
// (the replay goroutine runs its share, borrowed tokens run the rest)
// and join before anything else sees the day end. Days with no events
// still fan the OnDayEnd work out.
func (d *driver) onDayEnd(st *trace.State, day int32) {
	batch := d.batch
	d.pool.Fan(len(d.stages), func(_, i int) {
		s := d.stages[i]
		for j := range batch {
			s.OnEvent(st, batch[j])
		}
		s.OnDayEnd(st, day)
	})
	d.batch = batch[:0] // the join makes the buffer reusable next day
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
