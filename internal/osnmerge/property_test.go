package osnmerge

import (
	"testing"

	"repro/internal/trace"
)

// syntheticMergeTrace builds a hand-written minimal merge scenario whose
// expected analysis values are computable by hand:
//
//	day 0: xiaonei users 0,1 befriend each other
//	day 5 (merge): 5q users 2,3 imported with their internal edge
//	day 6: external edge 0-2
//	day 7: new user 4, edge 4-0 (new)
//	day 8: internal edge 1-0 impossible (dup) → use 1-2 external
func syntheticMergeTrace() []trace.Event {
	return []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginXiaonei},
		{Kind: trace.AddEdge, Day: 0, U: 0, V: 1},
		{Kind: trace.AddNode, Day: 5, U: 2, Origin: trace.OriginFiveQ},
		{Kind: trace.AddNode, Day: 5, U: 3, Origin: trace.OriginFiveQ},
		{Kind: trace.AddEdge, Day: 5, U: 2, V: 3},
		{Kind: trace.AddEdge, Day: 6, U: 0, V: 2},
		{Kind: trace.AddNode, Day: 7, U: 4, Origin: trace.OriginNew},
		{Kind: trace.AddEdge, Day: 7, U: 4, V: 0},
		{Kind: trace.AddEdge, Day: 8, U: 1, V: 2},
		// Padding days so the observation window exists.
		{Kind: trace.AddNode, Day: 40, U: 5, Origin: trace.OriginNew},
		{Kind: trace.AddEdge, Day: 40, U: 5, V: 4},
	}
}

func TestAnalyzeSyntheticCounts(t *testing.T) {
	opt := DefaultOptions()
	opt.FallbackThreshold = 10
	opt.DistanceEvery = 2
	opt.DistanceSamples = 8
	res, err := analyze(syntheticMergeTrace(), 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.XiaoneiUsers != 2 || res.FiveQUsers != 2 {
		t.Fatalf("users: %d / %d", res.XiaoneiUsers, res.FiveQUsers)
	}
	// Post-merge edges: day6 external, day7 new, day8 external, day40 new.
	var ext, newu, intl int64
	for _, d := range res.EdgesPerDay {
		ext += d.External
		newu += d.NewUsers
		intl += d.Internal
	}
	if ext != 2 || newu != 2 || intl != 0 {
		t.Fatalf("classified ext=%d new=%d int=%d", ext, newu, intl)
	}
	// The merge-day import edge (2-3 on day 5) is excluded.
	for _, d := range res.EdgesPerDay {
		if d.Day == 0 {
			t.Fatal("merge-day edge leaked into post-merge series")
		}
	}
}

func TestSyntheticDistances(t *testing.T) {
	opt := DefaultOptions()
	opt.FallbackThreshold = 10
	opt.DistanceEvery = 1
	opt.DistanceSamples = 16
	res, err := analyze(syntheticMergeTrace(), 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distances) == 0 {
		t.Fatal("no distances")
	}
	// After day 6's external edge 0-2: from xiaonei side, node 0 reaches
	// 5Q in 1 hop, node 1 in 2 → average in [1, 2].
	var after6 *DistancePoint
	for i := range res.Distances {
		if res.Distances[i].DaysAfter == 2 { // day 7
			after6 = &res.Distances[i]
		}
	}
	if after6 == nil {
		t.Fatal("no day-7 distance sample")
	}
	if after6.XiaoneiTo5Q < 1 || after6.XiaoneiTo5Q > 2 {
		t.Fatalf("xiaonei->5q = %v, want within [1,2]", after6.XiaoneiTo5Q)
	}
}

func TestActivityThresholdFallback(t *testing.T) {
	// A trace where no user has two edges forces the fallback threshold.
	evs := []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0, Origin: trace.OriginXiaonei},
		{Kind: trace.AddNode, Day: 0, U: 1, Origin: trace.OriginFiveQ},
		{Kind: trace.AddEdge, Day: 1, U: 0, V: 1},
		{Kind: trace.AddNode, Day: 100, U: 2, Origin: trace.OriginNew},
	}
	opt := DefaultOptions()
	opt.FallbackThreshold = 7
	res, err := analyze(evs, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivityThreshold != 7 {
		t.Fatalf("threshold = %d, want fallback 7", res.ActivityThreshold)
	}
}
