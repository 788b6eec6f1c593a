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
// (the observable that pins the barrier — a day-end that ran before the
// day's events were applied would see too few edges).
type recStage struct {
	name   string
	events []trace.Event
	days   []int32
	edges  []int64
	log    *[]string // optional shared interleaving log (inline stages only)
	done   bool
}

func (r *recStage) Name() string { return r.name }
func (r *recStage) OnEvent(_ *trace.State, ev trace.Event) {
	r.events = append(r.events, ev)
	if r.log != nil {
		*r.log = append(*r.log, r.name+":ev")
	}
}
func (r *recStage) OnDayEnd(st *trace.State, day int32) {
	r.days = append(r.days, day)
	r.edges = append(r.edges, st.Graph.NumEdges())
	if r.log != nil {
		*r.log = append(*r.log, r.name+":day")
	}
}
func (r *recStage) Finish(_ *trace.State) error { r.done = true; return nil }

// OverlapSafe marks the stage for the day-batch fan-out; the marker is
// consulted via a type assertion on a wrapper so the same recorder can
// run both inline and deferred.
type overlapStage struct{ *recStage }

func (overlapStage) OverlapSafe() {}

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

// runRecorded runs one engine pass at the given worker count with
// nOverlap marked and nInline unmarked recorder stages, returning them.
func runRecorded(t *testing.T, workers, nOverlap, nInline int, log *[]string) ([]*recStage, []*recStage) {
	t.Helper()
	e := New()
	e.SetPool(NewPool(workers))
	var over, inl []*recStage
	for i := 0; i < nOverlap; i++ {
		r := &recStage{name: "over"}
		over = append(over, r)
		e.Subscribe(overlapStage{r})
	}
	for i := 0; i < nInline; i++ {
		r := &recStage{name: string(rune('a' + i)), log: log}
		inl = append(inl, r)
		e.Subscribe(r)
	}
	if _, err := runEvents(e, parallelTestEvents()); err != nil {
		t.Fatal(err)
	}
	return over, inl
}

// TestParallelMatchesSequential holds every stage's observed sequence —
// events in order, day ends in order, and the shared graph's edge count
// at each day barrier — bit-identical between a budget of one token and
// larger budgets. Run with -race this is also the data-race gate for
// the day-batch hand-off.
func TestParallelMatchesSequential(t *testing.T) {
	seqOver, seqInl := runRecorded(t, 1, 3, 2, nil)
	for _, workers := range []int{2, 8} {
		parOver, parInl := runRecorded(t, workers, 3, 2, nil)
		for i := range seqOver {
			compareRec(t, "overlappable", workers, parOver[i], seqOver[i])
		}
		for i := range seqInl {
			compareRec(t, "inline", workers, parInl[i], seqInl[i])
		}
	}
}

func compareRec(t *testing.T, label string, workers int, got, want *recStage) {
	t.Helper()
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s stage at workers=%d: event sequence diverged", label, workers)
	}
	if !reflect.DeepEqual(got.days, want.days) {
		t.Fatalf("%s stage at workers=%d: days %v, want %v", label, workers, got.days, want.days)
	}
	if !reflect.DeepEqual(got.edges, want.edges) {
		t.Fatalf("%s stage at workers=%d: per-day edge counts diverged (day work ran before the barrier?)", label, workers)
	}
	if !got.done {
		t.Fatalf("%s stage at workers=%d: Finish did not run", label, workers)
	}
}

// TestParallelInlineOrdering pins the deterministic-merge rule for
// unmarked stages: their callbacks interleave in subscription order per
// event, exactly as sequentially.
func TestParallelInlineOrdering(t *testing.T) {
	var seqLog, parLog []string
	runRecorded(t, 1, 2, 3, &seqLog)
	runRecorded(t, 8, 2, 3, &parLog)
	if !reflect.DeepEqual(parLog, seqLog) {
		t.Fatal("inline stages' interleaving diverged from subscription order")
	}
}

// barrierSyncer asserts, at every Sync, that each deferred stage's day
// work for this day has completed — the Sync barrier contract.
type barrierSyncer struct {
	recStage
	watch []*recStage
	fail  func(format string, args ...any)
}

func (b *barrierSyncer) Sync(_ context.Context, st *trace.State, day int32) error {
	for _, w := range b.watch {
		if n := len(w.days); n == 0 || w.days[n-1] != day {
			b.fail("Sync at day %d: deferred stage has only reached day %v", day, w.days)
		}
		if n := len(w.edges); n > 0 && w.edges[n-1] != st.Graph.NumEdges() {
			b.fail("Sync at day %d: deferred stage saw %d edges, barrier state has %d", day, w.edges[len(w.edges)-1], st.Graph.NumEdges())
		}
	}
	return nil
}

// TestParallelSyncBarrier: the engine's Sync hook (and therefore the
// checkpoint hook, which subscribes the same way) must observe every
// Overlappable stage's day work joined.
func TestParallelSyncBarrier(t *testing.T) {
	e := New()
	e.SetPool(NewPool(4))
	var watched []*recStage
	for i := 0; i < 3; i++ {
		r := &recStage{name: "over"}
		watched = append(watched, r)
		e.Subscribe(overlapStage{r})
	}
	b := &barrierSyncer{recStage: recStage{name: "sync"}, watch: watched, fail: t.Errorf}
	e.Subscribe(b)
	if _, err := runEvents(e, parallelTestEvents()); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSyncErrorAborts: a Sync error with deferred stages aborts
// the replay exactly as at a budget of one — no Finish runs.
func TestParallelSyncErrorAborts(t *testing.T) {
	e := New()
	e.SetPool(NewPool(4))
	r1, r2 := &recStage{name: "over"}, &recStage{name: "over"}
	e.Subscribe(overlapStage{r1}, overlapStage{r2})
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

// TestParallelDriverDegenerates: with fewer than two marked stages there
// is nothing to overlap, and at a budget of one nothing is deferred; in
// both cases every stage runs inline in subscription order.
func TestParallelDriverDegenerates(t *testing.T) {
	a := overlapStage{&recStage{name: "a"}}
	b := &recStage{name: "b"}
	c := overlapStage{&recStage{name: "c"}}
	for _, tc := range []struct {
		workers int
		stages  []Stage
	}{
		{4, []Stage{a, b}},
		{1, []Stage{a, b, c}},
	} {
		e := New()
		e.SetPool(NewPool(tc.workers))
		e.Subscribe(tc.stages...)
		d := e.newDriver(0)
		if d.deferred != nil {
			t.Fatalf("workers=%d: %d stages deferred, want none", tc.workers, len(d.deferred))
		}
		if !reflect.DeepEqual(d.inline, tc.stages) {
			t.Fatalf("workers=%d: degenerate driver lost subscription order", tc.workers)
		}
	}
}
