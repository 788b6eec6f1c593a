package osnmerge

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

var (
	once   sync.Once
	events []trace.Event
	mday   int32
	res    *Result
	onceEr error
)

func analysis(t *testing.T) *Result {
	t.Helper()
	once.Do(func() {
		cfg := gen.SmallConfig()
		tr, err := gen.Generate(cfg)
		if err != nil {
			onceEr = err
			return
		}
		events = tr.Events
		mday = tr.Meta.MergeDay
		res, onceEr = analyze(events, mday, DefaultOptions())
	})
	if onceEr != nil {
		t.Fatal(onceEr)
	}
	return res
}

func TestClassify(t *testing.T) {
	cases := []struct {
		a, b trace.Origin
		want EdgeClass
	}{
		{trace.OriginXiaonei, trace.OriginXiaonei, Internal},
		{trace.OriginFiveQ, trace.OriginFiveQ, Internal},
		{trace.OriginXiaonei, trace.OriginFiveQ, External},
		{trace.OriginFiveQ, trace.OriginXiaonei, External},
		{trace.OriginNew, trace.OriginXiaonei, NewUser},
		{trace.OriginFiveQ, trace.OriginNew, NewUser},
		{trace.OriginNew, trace.OriginNew, NewUser},
	}
	for _, tc := range cases {
		if got := Classify(tc.a, tc.b); got != tc.want {
			t.Fatalf("Classify(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEdgeClassString(t *testing.T) {
	if Internal.String() != "internal" || External.String() != "external" || NewUser.String() != "new" {
		t.Fatal("class names wrong")
	}
	if EdgeClass(9).String() != "unknown" {
		t.Fatal("unknown class name")
	}
}

// analyze runs the §5 stage over events in one replay.
func analyze(events []trace.Event, mergeDay int32, opt Options) (*Result, error) {
	s := NewStage(mergeDay, opt)
	st, err := trace.ReplaySource(trace.SliceSource(events), trace.Hooks{OnEvent: s.OnEvent, OnDayEnd: s.OnDayEnd})
	if err != nil {
		return nil, err
	}
	if err := s.Finish(st); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := analyze(nil, -1, DefaultOptions()); err != ErrNoMerge {
		t.Fatalf("err = %v", err)
	}
	// Merge too close to the end of the trace: no observation window.
	short := []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0},
		{Kind: trace.AddNode, Day: 0, U: 1},
		{Kind: trace.AddEdge, Day: 1, U: 0, V: 1},
	}
	if _, err := analyze(short, 0, DefaultOptions()); err != ErrTooFew {
		t.Fatalf("err = %v", err)
	}
}

func TestActivityThresholdComputed(t *testing.T) {
	r := analysis(t)
	if r.ActivityThreshold < 1 {
		t.Fatalf("threshold = %d", r.ActivityThreshold)
	}
	if r.XiaoneiUsers == 0 || r.FiveQUsers == 0 {
		t.Fatalf("user counts: %d / %d", r.XiaoneiUsers, r.FiveQUsers)
	}
}

func TestDuplicateEstimates(t *testing.T) {
	r := analysis(t)
	// The generator silences 11% of Xiaonei and 28% of 5Q users; the
	// analysis should recover numbers in those neighborhoods (inactive
	// users also include organically retired ones, so estimates are
	// upper bounds).
	if r.InactiveAtMergeXiaonei < 0.05 || r.InactiveAtMergeXiaonei > 0.6 {
		t.Fatalf("xiaonei inactive = %v", r.InactiveAtMergeXiaonei)
	}
	if r.InactiveAtMergeFiveQ < 0.15 || r.InactiveAtMergeFiveQ > 0.8 {
		t.Fatalf("5q inactive = %v", r.InactiveAtMergeFiveQ)
	}
	// 5Q must lose more accounts than Xiaonei (the paper's key §5.2 finding).
	if r.InactiveAtMergeFiveQ <= r.InactiveAtMergeXiaonei {
		t.Fatalf("5q (%v) should be more inactive than xiaonei (%v)",
			r.InactiveAtMergeFiveQ, r.InactiveAtMergeXiaonei)
	}
}

func TestActiveCurvesShape(t *testing.T) {
	r := analysis(t)
	if len(r.ActiveXiaonei) == 0 || len(r.ActiveFiveQ) == 0 {
		t.Fatal("no active curves")
	}
	for _, curves := range [][]ActiveDay{r.ActiveXiaonei, r.ActiveFiveQ} {
		for _, d := range curves {
			for _, v := range []float64{d.All, d.New, d.Internal, d.External} {
				if v < 0 || v > 100 {
					t.Fatalf("percentage out of range: %+v", d)
				}
			}
			// "All" dominates each component.
			if d.All+1e-9 < d.New || d.All+1e-9 < d.Internal || d.All+1e-9 < d.External {
				t.Fatalf("component exceeds all: %+v", d)
			}
		}
	}
	// Activity declines over time (users lose interest, §5.2).
	x := r.ActiveXiaonei
	first, last := x[0].All, x[len(x)-1].All
	if last >= first {
		t.Fatalf("xiaonei activity did not decline: %v -> %v", first, last)
	}
}

func TestEdgesPerDayShape(t *testing.T) {
	r := analysis(t)
	if len(r.EdgesPerDay) == 0 {
		t.Fatal("no edge series")
	}
	var newTotal, extTotal, intTotal int64
	for _, d := range r.EdgesPerDay {
		if d.Day <= 0 {
			t.Fatalf("non-positive day: %+v", d)
		}
		newTotal += d.NewUsers
		extTotal += d.External
		intTotal += d.Internal
	}
	if newTotal == 0 || extTotal == 0 || intTotal == 0 {
		t.Fatalf("edge classes missing: new=%d ext=%d int=%d", newTotal, extTotal, intTotal)
	}
	// New-user edges dominate in the long run (the paper's §5.3 headline).
	if newTotal <= extTotal || newTotal <= intTotal {
		t.Fatalf("new edges (%d) should dominate int (%d) and ext (%d)", newTotal, intTotal, extTotal)
	}
}

func TestRatioSeries(t *testing.T) {
	r := analysis(t)
	for _, series := range [][]RatioDay{r.RatiosXiaonei, r.RatiosFiveQ, r.RatiosBoth} {
		if len(series) == 0 {
			t.Fatal("empty ratio series")
		}
		for _, d := range series {
			if d.HasIntExt && d.IntOverExt < 0 {
				t.Fatalf("negative ratio: %+v", d)
			}
		}
	}
	// Eventually new/external must exceed 1 (new users take over).
	lastQ := r.RatiosFiveQ[len(r.RatiosFiveQ)-1]
	if lastQ.HasNewExt && lastQ.NewOverExt < 1 {
		t.Fatalf("5q new/ext ratio at end = %v, want >= 1", lastQ.NewOverExt)
	}
}

func TestDistancesShrink(t *testing.T) {
	r := analysis(t)
	if len(r.Distances) < 3 {
		t.Fatalf("distance points = %d", len(r.Distances))
	}
	first, last := r.Distances[0], r.Distances[len(r.Distances)-1]
	if math.IsNaN(first.XiaoneiTo5Q) || math.IsNaN(last.XiaoneiTo5Q) {
		t.Fatal("NaN distances")
	}
	if last.XiaoneiTo5Q >= first.XiaoneiTo5Q {
		t.Fatalf("distance did not shrink: %v -> %v", first.XiaoneiTo5Q, last.XiaoneiTo5Q)
	}
	// By the end the two OSNs must be tightly connected (paper: < 2 hops).
	if last.XiaoneiTo5Q > 2.5 || last.FiveQToXiaonei > 2.5 {
		t.Fatalf("end distances too large: %+v", last)
	}
	for _, p := range r.Distances {
		if p.XiaoneiTo5Q < 1 || p.FiveQToXiaonei < 1 {
			t.Fatalf("distance below 1: %+v", p)
		}
	}
}
