package trace

import (
	"context"

	"repro/internal/graph"
)

// State is the incrementally maintained view of the network that replay
// builds: the live graph plus the per-node birthday and origin columns that
// the node- and merge-level analyses need.
type State struct {
	Graph   *graph.Graph
	JoinDay []int32  // day each node was created
	Origin  []Origin // origin network of each node
	Day     int32    // current day being replayed
}

// NewState returns an empty state with capacity hints.
func NewState(nodeHint, edgeHint int) *State {
	return &State{Graph: graph.New(nodeHint), JoinDay: make([]int32, 0, nodeHint), Origin: make([]Origin, 0, nodeHint)}
}

// Apply folds one event into the state. Invalid edge events (self loops,
// duplicates) are reported via the returned error; callers replaying a
// Validate()-clean trace can ignore it.
func (s *State) Apply(ev Event) error {
	s.Day = ev.Day
	switch ev.Kind {
	case AddNode:
		s.Graph.EnsureNode(ev.U)
		// Grow the columns to ev.U in one reservation (not one element
		// at a time — this runs for every node-creation event). Nodes
		// implicitly created to fill the gap inherit this event's day
		// and origin, exactly as the old element-wise loop assigned them.
		if n := int(ev.U) + 1; n > len(s.JoinDay) {
			old := len(s.JoinDay)
			if cap(s.JoinDay) < n || cap(s.Origin) < n {
				c := 2 * cap(s.JoinDay)
				if c < n {
					c = n
				}
				jd := make([]int32, n, c)
				copy(jd, s.JoinDay)
				s.JoinDay = jd
				og := make([]Origin, n, c)
				copy(og, s.Origin)
				s.Origin = og
			} else {
				s.JoinDay = s.JoinDay[:n]
				s.Origin = s.Origin[:n]
			}
			for i := old; i < n; i++ {
				s.JoinDay[i] = ev.Day
				s.Origin[i] = ev.Origin
			}
		}
		s.JoinDay[ev.U] = ev.Day
		s.Origin[ev.U] = ev.Origin
		return nil
	case AddEdge:
		return s.Graph.AddEdge(ev.U, ev.V)
	}
	return nil
}

// NodeAge returns the age in days of node u at day 'day' (0 on its join day).
func (s *State) NodeAge(u graph.NodeID, day int32) int32 {
	return day - s.JoinDay[u]
}

// ApplyBatch folds a batch of events into the state in order, calling
// onEvent (if non-nil) after each one. ctx is checked before each event
// (a nil ctx is never cancelled): once it is cancelled the batch stops
// with ctx.Err() and no further event reaches the state. The first Apply
// error stops the batch the same way.
func (s *State) ApplyBatch(ctx context.Context, batch []Event, onEvent func(*State, Event)) error {
	for _, ev := range batch {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := s.Apply(ev); err != nil {
			return err
		}
		if onEvent != nil {
			onEvent(s, ev)
		}
	}
	return nil
}

// Hooks configures a replay pass. Any field may be nil.
type Hooks struct {
	// OnEvent fires for every event after it is applied to the state.
	// It is called by the default apply step only; a pass that sets
	// Apply never calls it.
	OnEvent func(st *State, ev Event)
	// OnDayEnd fires once per day boundary, after the last event of that
	// day has been applied, with the day that just finished. Days with no
	// events still fire, in order, so periodic metrics stay on schedule.
	OnDayEnd func(st *State, day int32)
	// Apply replaces the pass's apply step: the loop hands it each day's
	// events as one batch (never empty), in trace order, before that
	// day's OnDayEnd. It must fold the batch into st, checking ctx before
	// each event as ApplyBatch does, and return the first error. The
	// batch is the loop's buffer, reused once Apply returns. nil selects
	// st.ApplyBatch(ctx, batch, OnEvent).
	Apply func(ctx context.Context, st *State, batch []Event) error
}

// ReplaySource streams one pass of src through a fresh State, firing
// hooks, and returns the final state. With a FileSource the pass runs
// straight off disk, so resident memory is the State (plus one day's
// events), not the event stream. The trace must be Validate()-clean;
// replay stops at the first application error otherwise.
func ReplaySource(src Source, hooks Hooks) (*State, error) {
	st := NewState(1024, 4096)
	return st, ReplayFrom(nil, st, src, hooks, 0)
}

// ReplayFrom is the replay loop: it opens one cursor of src at fromDay
// (src.OpenAt, so a day-indexed FileSource seeks instead of decoding the
// prefix), gathers each day's events into one batch, hands the batch to
// the apply step (hooks.Apply, or st.ApplyBatch) and fires the day-end
// hooks, then closes the cursor. Day boundaries fire from fromDay on,
// empty days included; the day-end for fromDay-1 and everything before
// it belongs to whoever built st (a restored checkpoint already saw
// them). fromDay <= 0 is a whole-trace replay, and st must be the state
// as of the end of day fromDay-1. A read or apply error ends the pass
// before that day's day-end hook.
//
// ctx is checked at every day boundary and before each event is applied;
// once it is cancelled the pass stops with ctx.Err() and no further event
// reaches st — so a cancellation raised inside a day-end hook (the
// engine's per-snapshot barrier) stops the pass at that boundary. A nil
// ctx disables the checks.
func ReplayFrom(ctx context.Context, st *State, src Source, hooks Hooks, fromDay int32) (err error) {
	cur, err := src.OpenAt(fromDay)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
	}()
	apply := hooks.Apply
	if apply == nil {
		apply = func(ctx context.Context, st *State, batch []Event) error {
			return st.ApplyBatch(ctx, batch, hooks.OnEvent)
		}
	}
	var batch []Event
	day, applied := max(st.Day, fromDay), false
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if ev.Day > day {
			if len(batch) > 0 {
				if err := apply(ctx, st, batch); err != nil {
					return err
				}
				batch, applied = batch[:0], true
			}
			for ; day < ev.Day; day++ {
				if err := ctxErr(ctx); err != nil {
					return err
				}
				if hooks.OnDayEnd != nil {
					hooks.OnDayEnd(st, day)
				}
			}
		}
		batch = append(batch, ev)
	}
	if len(batch) > 0 {
		if err := apply(ctx, st, batch); err != nil {
			return err
		}
		applied = true
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if applied && hooks.OnDayEnd != nil {
		hooks.OnDayEnd(st, day)
	}
	return nil
}

// ctxErr is ctx.Err() with a nil ctx never cancelled. It polls
// ctx.Done() without blocking instead of calling ctx.Err(), which takes
// the context's mutex: this check runs before every event of the pass.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
