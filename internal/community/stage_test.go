package community

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// TestStageQueuedMatchesInline runs the community Stage with its detector
// inline (no pool) and queued on budgets of one and two tokens, next to
// the users stage so that at two tokens both run as the engine's
// overlapped day tasks. The results must be identical, and so must the
// stage's checkpoint state: checkpoints every 25 days land on snapshot
// days 50 and 125 (StartDay 20, every 3) with that day's detector task
// just queued, so SaveState must join it before serializing.
func TestStageQueuedMatchesInline(t *testing.T) {
	tr := sweepTrace(t)
	opt := DefaultOptions()
	opt.SizeDistDays = []int32{110, 139}
	type output struct {
		res    *Result
		impact *UserImpact
		states map[int32][]byte
	}
	run := func(pool *engine.Pool) output {
		cs := NewStage(opt)
		us := NewUsersStage(nil, cs.Result)
		eng := engine.New()
		if pool != nil {
			cs.Share(new(Snapshots), pool)
			eng.SetPool(pool)
		}
		eng.Subscribe(cs, us)
		states := map[int32][]byte{}
		eng.EnableCheckpoints(25, func(day int32, _ *trace.State) error {
			var b bytes.Buffer
			if err := cs.SaveState(&b); err != nil {
				return err
			}
			states[day] = b.Bytes()
			return nil
		})
		if _, err := eng.RunSourceContext(context.Background(), tr.Source()); err != nil {
			t.Fatal(err)
		}
		if pool != nil {
			if err := pool.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return output{cs.Result(), us.Impact(), states}
	}

	want := run(nil)
	if want.res == nil || len(want.states[50]) == 0 || len(want.states[125]) == 0 {
		t.Fatal("inline run: no result or no mid-run checkpoint state")
	}
	for _, workers := range []int{1, 2} {
		got := run(engine.NewPool(workers))
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("workers=%d: Result differs from the inline run", workers)
		}
		if !reflect.DeepEqual(got.impact, want.impact) {
			t.Errorf("workers=%d: users' Impact differs from the inline run", workers)
		}
		for day, b := range want.states {
			if !bytes.Equal(got.states[day], b) {
				t.Errorf("workers=%d: SaveState bytes at day %d differ from the inline run", workers, day)
			}
		}
		if len(got.states) != len(want.states) {
			t.Errorf("workers=%d: %d checkpoints, inline run %d", workers, len(got.states), len(want.states))
		}
	}
}

// TestSweepWithoutPool: a sweep built without a pool is a budget of one —
// its detectors run inline — and matches a sweep queued on two tokens.
func TestSweepWithoutPool(t *testing.T) {
	tr := sweepTrace(t)
	deltas := []float64{0.01, 0.1}
	run := func(pool *engine.Pool) *SweepStage {
		sw := NewSweepStage(DefaultOptions(), deltas, pool)
		eng := engine.New()
		eng.Subscribe(sw)
		if _, err := eng.RunSourceContext(context.Background(), tr.Source()); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	inline := run(nil)
	pool := engine.NewPool(2)
	queued := run(pool)
	if err := pool.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if inline.Result(i) == nil || !reflect.DeepEqual(inline.Result(i), queued.Result(i)) {
			t.Errorf("δ=%v: the pool-less sweep's result differs from the queued one", d)
		}
	}
}

// TestTasksJoinedTwice: two joins at once, as the end-of-run SaveState
// runs beside Finish, both return once every queued task has finished,
// and both see the tasks' writes. A join whose context is cancelled
// returns at once and leaves the tasks outstanding for a later join.
func TestTasksJoinedTwice(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		pool := engine.NewPool(workers)
		q := newTasks(pool)
		done := make([]bool, 4)
		for i := range done {
			q.queue(func() { done[i] = true })
		}
		pool.Fan(2, func(_, _ int) {
			if err := q.join(nil); err != nil {
				t.Error(err)
			}
			for i, d := range done {
				if !d {
					t.Errorf("workers=%d: task %d unfinished after its join", workers, i)
				}
			}
		})
		if err := pool.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	pool := engine.NewPool(2)
	q := newTasks(pool)
	gate := make(chan struct{})
	q.queue(func() { <-gate })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.join(ctx); err != context.Canceled {
		t.Fatalf("cancelled join: err %v, want context.Canceled", err)
	}
	close(gate)
	if err := q.join(nil); err != nil {
		t.Fatal(err)
	}
	if q.outstanding != 0 {
		t.Fatalf("%d tasks outstanding after a join", q.outstanding)
	}
	if err := pool.Wait(); err != nil {
		t.Fatal(err)
	}
}
