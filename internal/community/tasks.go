package community

import (
	"context"
	"sync"

	"repro/internal/engine"
)

// tasks is a stage's detector work queued on the run's Pool against one
// snapshot's frozen view. The stage joins it before its next snapshot,
// before SaveState and in Finish, so each detector's snapshots stay
// strictly ordered (day D's Louvain seeds from the previous snapshot's
// assignment) and its state is quiescent whenever anything else reads
// it. Joining before the next snapshot also bounds the stage's live
// frozen views at one, however far the replay runs ahead.
//
// The end-of-run SaveState runs beside Finish, so two goroutines may join
// at once: a join waits for idle to close, which any number of joiners
// can do together, and a join after that finds nothing outstanding.
type tasks struct {
	pool *engine.Pool

	mu          sync.Mutex
	outstanding int           // queued but not yet finished
	idle        chan struct{} // closed when outstanding drops to zero
}

// newTasks creates a queue on pool. A nil pool is a budget of one: every
// task runs inline.
func newTasks(pool *engine.Pool) tasks {
	if pool == nil {
		pool = engine.NewPool(1)
	}
	return tasks{pool: pool}
}

// queue runs fn on the pool once a token is free (inline at a budget of
// one).
func (t *tasks) queue(fn func()) {
	t.mu.Lock()
	if t.outstanding == 0 {
		t.idle = make(chan struct{})
	}
	t.outstanding++
	t.mu.Unlock()
	t.pool.Go(func() error {
		fn()
		t.mu.Lock()
		if t.outstanding--; t.outstanding == 0 {
			close(t.idle)
		}
		t.mu.Unlock()
		return nil
	})
}

// join blocks until every queued task has finished, lending the caller's
// token to the queued tasks while it waits. A nil ctx waits
// unconditionally; otherwise a cancellation before or during the wait
// returns ctx.Err() with the remaining tasks still outstanding — the run
// is aborting, and the pool drain collects them.
func (t *tasks) join(ctx context.Context) error {
	t.mu.Lock()
	idle, busy := t.idle, t.outstanding > 0
	t.mu.Unlock()
	if !busy {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	var err error
	t.pool.Idle(func() {
		select {
		case <-idle:
		case <-done:
			err = ctx.Err()
		}
	})
	return err
}
