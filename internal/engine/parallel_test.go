package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// recStage records everything it observes: its own event sequence, the
// day-end sequence, and the shared graph's edge count at each day end
// (the observable that pins the barrier — a day end that ran before the
// day's events were applied would see too few edges). It reads the
// shared state only in OnDayEnd: OnEvent runs beside the day's apply.
type recStage struct {
	name   string
	events []trace.Event
	days   []int32
	edges  []int64
	done   bool
}

func (r *recStage) Name() string { return r.name }
func (r *recStage) OnEvent(_ *trace.State, ev trace.Event) {
	r.events = append(r.events, ev)
}
func (r *recStage) OnDayEnd(st *trace.State, day int32) {
	r.days = append(r.days, day)
	r.edges = append(r.edges, st.Graph.NumEdges())
}
func (r *recStage) Finish(_ *trace.State) error { r.done = true; return nil }

// parallelTestEvents spreads nodes and a chain of edges over sparse days
// (with empty-day gaps) so day batches vary in size.
func parallelTestEvents() []trace.Event {
	var events []trace.Event
	day := int32(0)
	for i := 0; i < 240; i++ {
		events = append(events, trace.Event{Kind: trace.AddNode, Day: day, U: int32(i)})
		if i > 0 {
			events = append(events, trace.Event{Kind: trace.AddEdge, Day: day, U: int32(i - 1), V: int32(i)})
		}
		switch {
		case i%7 == 6:
			day += 3 // gap of empty days
		case i%3 == 2:
			day++
		}
	}
	return events
}

// runRecorded runs one engine pass at the given worker count over n
// recorder stages.
func runRecorded(t *testing.T, workers, n int) []*recStage {
	t.Helper()
	e := New()
	e.SetPool(NewPool(workers))
	var recs []*recStage
	for i := 0; i < n; i++ {
		r := &recStage{name: string(rune('a' + i))}
		recs = append(recs, r)
		e.Subscribe(r)
	}
	if _, err := runEvents(e, parallelTestEvents()); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestParallelMatchesSequential holds every stage's observed sequence —
// events in order, day ends in order, and the shared graph's edge count
// at each day barrier — bit-identical between a budget of one token and
// larger budgets. Run with -race this is also the data-race gate for the
// day's fan-out: the recorders' OnEvent calls run beside the apply that
// mutates the shared graph, and their OnDayEnd reads follow it.
func TestParallelMatchesSequential(t *testing.T) {
	seq := runRecorded(t, 1, 5)
	for _, workers := range []int{2, 8} {
		par := runRecorded(t, workers, 5)
		for i := range seq {
			compareRec(t, workers, par[i], seq[i])
		}
	}
}

// TestParallelDayEndSeesAppliedDay asserts the Stage contract's OnDayEnd
// rule at budgets 1, 2 and 8: the state a stage reads in OnDayEnd holds
// every event of that day and none of a later one, although the day's
// apply ran beside the stages' OnEvent replay.
func TestParallelDayEndSeesAppliedDay(t *testing.T) {
	events := parallelTestEvents()
	for _, workers := range []int{1, 2, 8} {
		for _, r := range runRecorded(t, workers, 3) {
			for i, day := range r.days {
				var want int64
				for _, ev := range events {
					if ev.Kind == trace.AddEdge && ev.Day <= day {
						want++
					}
				}
				if got := r.edges[i]; got != want {
					t.Fatalf("workers=%d stage %s: OnDayEnd on day %d read %d edges, want the end-of-day %d",
						workers, r.name, day, got, want)
				}
			}
		}
	}
}

func compareRec(t *testing.T, workers int, got, want *recStage) {
	t.Helper()
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("stage %s at workers=%d: event sequence diverged", got.name, workers)
	}
	if !reflect.DeepEqual(got.days, want.days) {
		t.Fatalf("stage %s at workers=%d: days %v, want %v", got.name, workers, got.days, want.days)
	}
	if !reflect.DeepEqual(got.edges, want.edges) {
		t.Fatalf("stage %s at workers=%d: per-day edge counts diverged (day work ran before the barrier?)", got.name, workers)
	}
	if !got.done {
		t.Fatalf("stage %s at workers=%d: Finish did not run", got.name, workers)
	}
}

// TestParallelApplyErrorFailsRun feeds a duplicate edge in the middle of
// a day through a pass with no Syncer and no checkpoints (so the driver
// holds no cancel func) at budgets 1, 2 and 8. The pass must fail with
// the error ReplaySource reports for the same trace, run no OnDayEnd for
// the failed day and no Finish, and not panic.
func TestParallelApplyErrorFailsRun(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0},
		{Kind: trace.AddNode, Day: 0, U: 1},
		{Kind: trace.AddEdge, Day: 0, U: 0, V: 1},
		{Kind: trace.AddNode, Day: 1, U: 2},
		{Kind: trace.AddEdge, Day: 1, U: 1, V: 0}, // duplicate of day 0's edge
		{Kind: trace.AddEdge, Day: 1, U: 1, V: 2},
		{Kind: trace.AddNode, Day: 2, U: 3},
	}
	_, want := trace.ReplaySource(trace.SliceSource(events), trace.Hooks{})
	if want == nil {
		t.Fatal("ReplaySource accepted a duplicate edge")
	}
	for _, workers := range []int{1, 2, 8} {
		e := New()
		e.SetPool(NewPool(workers))
		recs := []*recStage{{name: "a"}, {name: "b"}, {name: "c"}}
		for _, r := range recs {
			e.Subscribe(r)
		}
		_, err := runEvents(e, events)
		if !errors.Is(err, want) || err.Error() != want.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, want)
		}
		for _, r := range recs {
			if !reflect.DeepEqual(r.days, []int32{0}) {
				t.Fatalf("workers=%d stage %s: day ends %v, want only day 0", workers, r.name, r.days)
			}
			if r.done {
				t.Fatalf("workers=%d stage %s: Finish ran after a failed apply", workers, r.name)
			}
		}
	}
}

// barrierSyncer asserts, at every Sync, that each stage's day work for
// this day has completed — the Sync barrier contract.
type barrierSyncer struct {
	recStage
	watch []*recStage
	fail  func(format string, args ...any)
}

func (b *barrierSyncer) Sync(_ context.Context, st *trace.State, day int32) error {
	for _, w := range b.watch {
		if n := len(w.days); n == 0 || w.days[n-1] != day {
			b.fail("Sync at day %d: stage has only reached day %v", day, w.days)
		}
		if n := len(w.edges); n > 0 && w.edges[n-1] != st.Graph.NumEdges() {
			b.fail("Sync at day %d: stage saw %d edges, barrier state has %d", day, w.edges[len(w.edges)-1], st.Graph.NumEdges())
		}
	}
	return nil
}

// TestParallelSyncBarrier: the engine's Sync hook (and therefore the
// checkpoint hook, which runs after it) must observe every stage's day
// work joined.
func TestParallelSyncBarrier(t *testing.T) {
	e := New()
	e.SetPool(NewPool(4))
	var watched []*recStage
	for i := 0; i < 3; i++ {
		r := &recStage{name: "rec"}
		watched = append(watched, r)
		e.Subscribe(r)
	}
	b := &barrierSyncer{recStage: recStage{name: "sync"}, watch: watched, fail: t.Errorf}
	e.Subscribe(b)
	if _, err := runEvents(e, parallelTestEvents()); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSyncErrorAborts: a Sync error at a budget above one aborts
// the replay exactly as at a budget of one — no Finish runs.
func TestParallelSyncErrorAborts(t *testing.T) {
	e := New()
	e.SetPool(NewPool(4))
	r1, r2 := &recStage{name: "a"}, &recStage{name: "b"}
	e.Subscribe(r1, r2)
	boom := errors.New("boom")
	fs := &failSyncer{recStage: recStage{name: "failsync"}, day: 5, err: boom}
	e.Subscribe(fs)
	if _, err := runEvents(e, parallelTestEvents()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if r1.done || r2.done || fs.done {
		t.Fatal("Finish ran after an aborted replay")
	}
}

type failSyncer struct {
	recStage
	day int32
	err error
}

func (f *failSyncer) Sync(_ context.Context, _ *trace.State, day int32) error {
	if day >= f.day {
		return f.err
	}
	return nil
}
