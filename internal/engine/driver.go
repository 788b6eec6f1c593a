package engine

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// driver is the engine's one dispatch path: the hooks the replay loop
// calls for one pass. At each day boundary it runs two Pool.Fans. The
// first is the day's apply step: item 0 folds the day's batch into the
// shared state while items 1..k replay the same batch into each stage's
// OnEvent, which never reads that state. The second runs every stage's
// OnDayEnd on the complete end-of-day state. A budget of one runs the
// items inline, in order (the apply, then each stage's events, then each
// stage's day end); a larger budget runs them on borrowed tokens too.
// Each stage sees its own events in trace order at any budget, so
// results do not depend on it.
//
// At a day end the driver runs, in order: the stages' OnDayEnds (joined),
// every Syncer's Sync, and the checkpoint cadence — so the barrier always
// sees every stage's day work complete and the shared state quiescent.
type driver struct {
	stages  []Stage
	syncers []Syncer
	pool    *Pool

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

// apply is the pass's apply step: the day's batch goes into the shared
// state (item 0) and into every stage's OnEvent (items 1..k) at once.
// An apply error is returned after the join, so the replay loop ends the
// pass before the day's OnDayEnd.
func (d *driver) apply(ctx context.Context, st *trace.State, batch []trace.Event) error {
	var err error
	d.pool.Fan(1+len(d.stages), func(_, i int) {
		if i == 0 {
			err = st.ApplyBatch(ctx, batch, nil)
			return
		}
		s := d.stages[i-1]
		for j := range batch {
			s.OnEvent(st, batch[j])
		}
	})
	return err
}

// onDayEnd is the day barrier. The stages' OnDayEnds fan out on the pool
// (the replay goroutine runs its share, borrowed tokens run the rest)
// and join before anything else sees the day end. Days with no events
// still fan the OnDayEnd work out.
func (d *driver) onDayEnd(st *trace.State, day int32) {
	d.pool.Fan(len(d.stages), func(_, i int) {
		d.stages[i].OnDayEnd(st, day)
	})
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
