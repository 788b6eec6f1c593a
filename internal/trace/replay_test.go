package trace

import (
	"context"
	"errors"
	"testing"
)

// TestReplayContextCancel asserts a cancelled context aborts the pass at
// the next day boundary with context.Canceled: the day-end hook for the
// boundary after the cancellation never fires.
func TestReplayContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var days []int32
	st := NewState(8, 8)
	err := ReplayFrom(ctx, st, SliceSource(tinyTrace()), Hooks{
		OnDayEnd: func(_ *State, day int32) {
			days = append(days, day)
			if day == 1 {
				cancel()
			}
		},
	}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Days 0 and 1 fired; the cancel lands before day 2's boundary.
	if len(days) != 2 || days[1] != 1 {
		t.Fatalf("day-end fired for %v, want [0 1]", days)
	}
	// A nil context must keep the uncancellable fast path intact.
	if err := ReplayFrom(nil, NewState(8, 8), SliceSource(tinyTrace()), Hooks{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCancelMidDay cancels the context from an OnEvent hook in the
// middle of a day: the per-event check must stop the pass before the next
// event reaches the state, with context.Canceled and no day end for the
// interrupted day.
func TestReplayCancelMidDay(t *testing.T) {
	tr := synthTrace(40) // 7 or 8 events a day
	const stopAfter = 10 // the third event of day 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen int
	var days []int32
	st := NewState(8, 8)
	err := ReplayFrom(ctx, st, SliceSource(tr.Events), Hooks{
		OnEvent: func(_ *State, _ Event) {
			if seen++; seen == stopAfter {
				cancel()
			}
		},
		OnDayEnd: func(_ *State, day int32) { days = append(days, day) },
	}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != stopAfter {
		t.Fatalf("OnEvent fired %d times, want %d", seen, stopAfter)
	}
	if got := int(st.Graph.NumNodes()) + int(st.Graph.NumEdges()); got != stopAfter {
		t.Fatalf("state holds %d events, want the %d applied before the cancel", got, stopAfter)
	}
	if d := tr.Events[stopAfter-1].Day; st.Day != d || len(days) != int(d) {
		t.Fatalf("stopped on day %d after day ends %v, want day %d with day ends before it", st.Day, days, d)
	}
}

func TestReplayBuildsState(t *testing.T) {
	st, err := ReplaySource(SliceSource(tinyTrace()), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph.NumNodes() != 3 || st.Graph.NumEdges() != 3 {
		t.Fatalf("n=%d e=%d", st.Graph.NumNodes(), st.Graph.NumEdges())
	}
	if st.JoinDay[0] != 0 || st.JoinDay[2] != 1 {
		t.Fatalf("join days %v", st.JoinDay)
	}
	if st.Origin[2] != OriginFiveQ {
		t.Fatalf("origin[2] = %v", st.Origin[2])
	}
	if st.NodeAge(2, 5) != 4 {
		t.Fatalf("NodeAge = %d", st.NodeAge(2, 5))
	}
}

func TestReplayDayBoundaries(t *testing.T) {
	var days []int32
	var edgeCountAtDay []int64
	_, err := ReplaySource(SliceSource(tinyTrace()), Hooks{
		OnDayEnd: func(st *State, day int32) {
			days = append(days, day)
			edgeCountAtDay = append(edgeCountAtDay, st.Graph.NumEdges())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Events span days 0..3; boundaries must fire for 0,1,2,3 exactly once.
	want := []int32{0, 1, 2, 3}
	if len(days) != len(want) {
		t.Fatalf("days = %v", days)
	}
	for i := range want {
		if days[i] != want[i] {
			t.Fatalf("days = %v, want %v", days, want)
		}
	}
	// Day 0 ends with 1 edge, day 1 and the empty day 2 with 2, day 3 with 3.
	wantEdges := []int64{1, 2, 2, 3}
	for i := range wantEdges {
		if edgeCountAtDay[i] != wantEdges[i] {
			t.Fatalf("edges at day ends = %v, want %v", edgeCountAtDay, wantEdges)
		}
	}
}

func TestReplayOnEvent(t *testing.T) {
	var kinds []Kind
	_, err := ReplaySource(SliceSource(tinyTrace()), Hooks{
		OnEvent: func(st *State, ev Event) { kinds = append(kinds, ev.Kind) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 6 {
		t.Fatalf("saw %d events", len(kinds))
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	fired := false
	st, err := ReplaySource(SliceSource(nil), Hooks{OnDayEnd: func(*State, int32) { fired = true }})
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("no day hooks for empty trace")
	}
	if st.Graph.NumNodes() != 0 {
		t.Fatal("state must be empty")
	}
}

func TestReplayStopsOnBadEdge(t *testing.T) {
	bad := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddEdge, Day: 0, U: 0, V: 0},
	}
	if _, err := ReplaySource(SliceSource(bad), Hooks{}); err == nil {
		t.Fatal("want error on self-loop application")
	}
}

func TestReplayIntoSegmented(t *testing.T) {
	evs := tinyTrace()
	st := NewState(0, 0)
	if err := ReplayFrom(nil, st, SliceSource(evs[:3]), Hooks{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := ReplayFrom(nil, st, SliceSource(evs[3:]), Hooks{}, 0); err != nil {
		t.Fatal(err)
	}
	if st.Graph.NumEdges() != 3 || st.Graph.NumNodes() != 3 {
		t.Fatalf("segmented replay wrong: n=%d e=%d", st.Graph.NumNodes(), st.Graph.NumEdges())
	}
}
