package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func testEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0},
		{Kind: trace.AddNode, Day: 0, U: 1},
		{Kind: trace.AddNode, Day: 2, U: 2},
		{Kind: trace.AddEdge, Day: 2, U: 0, V: 1},
		{Kind: trace.AddEdge, Day: 5, U: 1, V: 2},
	}
}

// Funcs adapts plain functions to the Stage interface; any field may be nil.
type Funcs struct {
	StageName string
	Event     func(st *trace.State, ev trace.Event)
	DayEnd    func(st *trace.State, day int32)
	Done      func(st *trace.State) error
}

func (f Funcs) Name() string { return f.StageName }

func (f Funcs) OnEvent(st *trace.State, ev trace.Event) {
	if f.Event != nil {
		f.Event(st, ev)
	}
}

func (f Funcs) OnDayEnd(st *trace.State, day int32) {
	if f.DayEnd != nil {
		f.DayEnd(st, day)
	}
}

func (f Funcs) Finish(st *trace.State) error {
	if f.Done != nil {
		return f.Done(st)
	}
	return nil
}

// runEvents runs one pass of e over an in-memory event slice.
func runEvents(e *Engine, events []trace.Event) (*trace.State, error) {
	return e.RunSourceContext(nil, trace.SliceSource(events))
}

// countingSource counts the cursors opened on it: one per replay pass.
type countingSource struct {
	trace.Source
	opens int
}

func (s *countingSource) Open() (trace.Cursor, error) {
	s.opens++
	return s.Source.Open()
}

func (s *countingSource) OpenAt(day int32) (trace.Cursor, error) {
	s.opens++
	return s.Source.OpenAt(day)
}

func TestEngineSinglePassAllStages(t *testing.T) {
	e := New()
	e.Hint(3, 2)
	type tally struct {
		events int
		days   []int32
		done   bool
	}
	tallies := make([]tally, 3)
	for i := range tallies {
		i := i
		e.Subscribe(Funcs{
			StageName: "tally",
			Event:     func(st *trace.State, ev trace.Event) { tallies[i].events++ },
			DayEnd:    func(st *trace.State, day int32) { tallies[i].days = append(tallies[i].days, day) },
			Done: func(st *trace.State) error {
				tallies[i].done = true
				return nil
			},
		})
	}
	src := &countingSource{Source: trace.SliceSource(testEvents())}
	st, err := e.RunSourceContext(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph.NumNodes() != 3 || st.Graph.NumEdges() != 2 {
		t.Fatalf("shared state: %d nodes %d edges", st.Graph.NumNodes(), st.Graph.NumEdges())
	}
	if got := src.opens; got != 1 {
		t.Fatalf("replay passes = %d, want 1 for %d stages", got, len(tallies))
	}
	wantDays := []int32{0, 1, 2, 3, 4, 5}
	for i, ta := range tallies {
		if ta.events != len(testEvents()) || !ta.done {
			t.Errorf("stage %d: events=%d done=%v", i, ta.events, ta.done)
		}
		if !reflect.DeepEqual(ta.days, wantDays) {
			t.Errorf("stage %d: days=%v want %v", i, ta.days, wantDays)
		}
	}
}

func TestEngineFinishErrorNamesStage(t *testing.T) {
	boom := errors.New("boom")
	e := New()
	var secondFinished bool
	e.Subscribe(
		Funcs{StageName: "first", Done: func(st *trace.State) error { return boom }},
		Funcs{StageName: "second", Done: func(st *trace.State) error { secondFinished = true; return nil }},
	)
	_, err := runEvents(e, testEvents())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := err.Error(); got != "first: boom" {
		t.Fatalf("err text = %q", got)
	}
	if secondFinished {
		t.Fatal("finish after a failed stage should not run")
	}
}

// syncStage is a Stage+Syncer recording the barrier call sequence.
type syncStage struct {
	Funcs
	syncs   []int32
	failDay int32
	err     error
}

func (s *syncStage) Sync(ctx context.Context, st *trace.State, day int32) error {
	s.syncs = append(s.syncs, day)
	if s.failDay > 0 && day == s.failDay {
		return s.err
	}
	return nil
}

// TestEngineSyncBarrier asserts the per-snapshot barrier contract: Sync
// fires once per day boundary, after that day's OnDayEnd callbacks, for
// every day of the pass.
func TestEngineSyncBarrier(t *testing.T) {
	var order []string
	s := &syncStage{Funcs: Funcs{
		StageName: "sync",
		DayEnd:    func(_ *trace.State, day int32) { order = append(order, "dayend") },
	}}
	e := New()
	e.Subscribe(s)
	e.Subscribe(Funcs{StageName: "after", DayEnd: func(_ *trace.State, day int32) { order = append(order, "after") }})
	if _, err := runEvents(e, testEvents()); err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(s.syncs, want) {
		t.Fatalf("sync days = %v, want %v", s.syncs, want)
	}
	// Sync runs after every subscriber's OnDayEnd — including stages
	// subscribed later — so a fan-out freeze sees the day fully dispatched.
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "dayend" || order[i+1] != "after" {
			t.Fatalf("day-end order broken at %d: %v", i, order)
		}
	}
}

// TestEngineSyncErrorAbortsReplay asserts a Sync error cancels the pass at
// that day boundary: not a single further event is applied to the shared
// state or dispatched, no later days fire, no Finish runs, and the engine
// returns the sync error itself.
func TestEngineSyncErrorAbortsReplay(t *testing.T) {
	boom := errors.New("barrier wait failed")
	var days []int32
	var events int
	var finished bool
	s := &syncStage{failDay: 2, err: boom, Funcs: Funcs{
		StageName: "sync",
		Event:     func(_ *trace.State, _ trace.Event) { events++ },
		DayEnd:    func(_ *trace.State, day int32) { days = append(days, day) },
		Done:      func(*trace.State) error { finished = true; return nil },
	}}
	e := New()
	e.Subscribe(s)
	st, err := e.RunSourceContext(context.Background(), trace.SliceSource(testEvents()))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sync error", err)
	}
	if got, want := days, []int32{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatched days = %v, want %v (abort at the failed boundary)", got, want)
	}
	// testEvents has 4 events through day 2 and one on day 5; the day-5
	// edge must never reach the shared graph after the day-2 sync failure.
	if events != 4 || st.Graph.NumEdges() != 1 {
		t.Fatalf("events=%d edges=%d after abort, want 4 events and 1 edge (day-5 edge not applied)",
			events, st.Graph.NumEdges())
	}
	if finished {
		t.Fatal("Finish ran after an aborted pass")
	}
	if got, want := s.syncs, []int32{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sync days = %v, want %v", got, want)
	}
}

// TestEngineSyncSeesCancellation asserts the ctx handed to Sync is the
// run's context: cancelling the caller's ctx is observable inside the
// barrier, and the pass aborts with context.Canceled.
func TestEngineSyncSeesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawCancel bool
	e := New()
	e.Subscribe(Funcs{StageName: "canceler", DayEnd: func(_ *trace.State, day int32) {
		if day == 2 {
			cancel()
		}
	}})
	e.Subscribe(syncProbe{saw: &sawCancel})
	_, err := e.RunSourceContext(ctx, trace.SliceSource(testEvents()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !sawCancel {
		t.Fatal("Sync never observed the cancelled run context")
	}
}

// syncProbe is a no-op stage recording whether Sync ever saw ctx done.
type syncProbe struct {
	saw *bool
}

func (p syncProbe) Name() string                      { return "probe" }
func (p syncProbe) OnEvent(*trace.State, trace.Event) {}
func (p syncProbe) OnDayEnd(*trace.State, int32)      {}
func (p syncProbe) Finish(*trace.State) error         { return nil }
func (p syncProbe) Sync(ctx context.Context, st *trace.State, day int32) error {
	if ctx.Err() != nil {
		*p.saw = true
		return ctx.Err()
	}
	return nil
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var cur, max atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		p.Go(func() error {
			n := cur.Add(1)
			mu.Lock()
			if n > max.Load() {
				max.Store(n)
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("max concurrency %d > bound %d", m, workers)
	}
}

func TestPoolFirstErrorWinsAndAllTasksRun(t *testing.T) {
	p := NewPool(2)
	boom := errors.New("boom")
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		i := i
		p.Go(func() error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
	}
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran = %d, want all 8 despite the error", ran.Load())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	var n atomic.Int64
	for i := 0; i < 4; i++ {
		p.Go(func() error { n.Add(1); return nil })
	}
	if err := p.Wait(); err != nil || n.Load() != 4 {
		t.Fatalf("err=%v n=%d", err, n.Load())
	}
}
