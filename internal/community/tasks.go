package community

import (
	"context"

	"repro/internal/engine"
)

// tasks is a stage's detector work queued on the run's Pool against one
// snapshot's frozen view. The stage joins it before its next snapshot,
// before SaveState and in Finish, so each detector's snapshots stay
// strictly ordered (day D's Louvain seeds from the previous snapshot's
// assignment) and its state is quiescent whenever anything else reads
// it. Joining before the next snapshot also bounds the stage's live
// frozen views at one, however far the replay runs ahead.
type tasks struct {
	pool        *engine.Pool
	done        chan struct{} // one token per finished task; sized to one snapshot's tasks
	outstanding int           // queued but not yet joined; the stage's goroutine only
}

// newTasks creates a queue for up to perSnapshot tasks per snapshot on
// pool. A nil pool is a budget of one: every task runs inline.
func newTasks(pool *engine.Pool, perSnapshot int) tasks {
	if pool == nil {
		pool = engine.NewPool(1)
	}
	return tasks{pool: pool, done: make(chan struct{}, perSnapshot)}
}

// queue runs fn on the pool once a token is free (inline at a budget of
// one).
func (t *tasks) queue(fn func()) {
	t.outstanding++
	t.pool.Go(func() error {
		defer func() { t.done <- struct{}{} }()
		fn()
		return nil
	})
}

// join blocks until every queued task has finished, lending the caller's
// token to the queued tasks while it waits. A nil ctx waits
// unconditionally; otherwise a cancellation before or during the wait
// returns ctx.Err() with the remaining tasks still counted as outstanding
// — the run is aborting, and the pool drain collects them.
func (t *tasks) join(ctx context.Context) error {
	if t.outstanding == 0 {
		return nil
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	var err error
	t.pool.Idle(func() {
		for ; t.outstanding > 0; t.outstanding-- {
			if ctx == nil {
				<-t.done
				continue
			}
			select {
			case <-t.done:
			case <-ctx.Done():
				err = ctx.Err()
				return
			}
		}
	})
	return err
}
