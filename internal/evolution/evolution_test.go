package evolution

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

var (
	traceOnce   sync.Once
	traceEvents []trace.Event
	traceErr    error
)

// makeTrace builds (once) a deterministic mid-sized trace whose node count
// spans enough scale for the PA-decay mechanism to be measurable.
func makeTrace(t *testing.T) []trace.Event {
	t.Helper()
	traceOnce.Do(func() {
		cfg := gen.DefaultConfig()
		cfg.Days = 350
		cfg.MaxNodes = 30000
		cfg.Arrival.Base = 12
		cfg.Arrival.GrowthStart = 0.07
		cfg.Arrival.GrowthEnd = 0.012
		cfg.Arrival.GrowthTau = 80
		cfg.Arrival.Dips = nil
		cfg.Arrival.Bursts = nil
		cfg.Merge = nil
		tr, err := gen.Generate(cfg)
		if err != nil {
			traceErr = err
			return
		}
		traceEvents = tr.Events
	})
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	return traceEvents
}

// analyze runs the Fig 2 stage over events, detached from any shared
// state.
func analyze(events []trace.Event, opt Options) (*Result, error) {
	s := NewStage(opt)
	for _, ev := range events {
		s.OnEvent(nil, ev)
	}
	if err := s.Finish(nil); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// analyzeAlpha runs the Fig 3 stage over events, detached from any shared
// state.
func analyzeAlpha(events []trace.Event, opt AlphaOptions) (*AlphaResult, error) {
	s := NewAlphaStage(opt)
	for _, ev := range events {
		s.OnEvent(nil, ev)
	}
	if err := s.Finish(nil); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if _, err := analyze(nil, DefaultOptions()); err != ErrNoEdges {
		t.Fatalf("err = %v", err)
	}
	nodesOnly := []trace.Event{{Kind: trace.AddNode, Day: 0, U: 0}}
	if _, err := analyze(nodesOnly, DefaultOptions()); err != ErrNoEdges {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeBasicShapes(t *testing.T) {
	events := makeTrace(t)
	res, err := analyze(events, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2a: month-1 bucket must have samples and a positive exponent.
	if len(res.InterArrival) != 6 {
		t.Fatalf("buckets = %d", len(res.InterArrival))
	}
	m1 := res.InterArrival[0]
	if m1.Samples == 0 {
		t.Fatal("no month-1 inter-arrival samples")
	}
	if m1.Gamma <= 0.5 {
		t.Fatalf("month-1 PDF exponent = %v, want clearly positive (power-law decay)", m1.Gamma)
	}
	// Fig 2b: histogram sums to ~1 and is front-loaded (first quartile
	// carries more mass than the last).
	var sum, firstQ, lastQ float64
	n := len(res.LifetimeHist)
	for i, h := range res.LifetimeHist {
		sum += h
		if i < n/4 {
			firstQ += h
		}
		if i >= 3*n/4 {
			lastQ += h
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("lifetime hist sums to %v", sum)
	}
	if res.NodesAnalyzed == 0 {
		t.Fatal("no nodes passed Fig 2b filters")
	}
	if firstQ <= lastQ {
		t.Fatalf("activity not front-loaded: first quartile %v <= last %v", firstQ, lastQ)
	}
	// Fig 2c: fractions are monotone in the threshold and within [0,1].
	if len(res.MinAge) == 0 {
		t.Fatal("no min-age series")
	}
	for _, d := range res.MinAge {
		if len(d.Frac) != 3 {
			t.Fatalf("frac count = %d", len(d.Frac))
		}
		for i, f := range d.Frac {
			if f < 0 || f > 1 {
				t.Fatalf("day %d frac[%d] = %v", d.Day, i, f)
			}
			if i > 0 && d.Frac[i] < d.Frac[i-1]-1e-12 {
				t.Fatalf("day %d: fraction not monotone in threshold: %v", d.Day, d.Frac)
			}
		}
	}
}

func TestMinAgeDeclines(t *testing.T) {
	// The share of edges from brand-new nodes must decline as the network
	// matures (the paper's key §3.1 finding).
	events := makeTrace(t)
	res, err := analyze(events, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var early, late []float64
	for _, d := range res.MinAge {
		if d.Day >= 20 && d.Day < 80 {
			early = append(early, d.Frac[0])
		}
		if d.Day >= 280 {
			late = append(late, d.Frac[0])
		}
	}
	if len(early) == 0 || len(late) == 0 {
		t.Fatal("not enough series coverage")
	}
	me := mean(early)
	ml := mean(late)
	if ml >= me {
		t.Fatalf("new-node edge share did not decline: early %v late %v", me, ml)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestAnalyzeAlphaOnTrace(t *testing.T) {
	events := makeTrace(t)
	res, err := analyzeAlpha(events, AlphaOptions{Interval: 5000, MinEdges: 10000, Seed: 3, PolyDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no alpha samples")
	}
	last := res.Samples[len(res.Samples)-1]
	// Ordering: higher-degree rule above random rule.
	if last.AlphaHigher <= last.AlphaRandom {
		t.Fatalf("alpha ordering violated: %+v", last)
	}
	// The PA-decay mechanism must show: α falls from first to last sample.
	first := res.Samples[0]
	if last.AlphaHigher >= first.AlphaHigher {
		t.Fatalf("alpha did not decay: first %v last %v", first.AlphaHigher, last.AlphaHigher)
	}
	if len(res.PEHigher) == 0 || len(res.PERandom) == 0 {
		t.Fatal("no p_e(d) points")
	}
	if res.FinalMSEHigher <= 0 || res.FinalMSERandom <= 0 {
		t.Fatalf("MSEs: %v %v", res.FinalMSEHigher, res.FinalMSERandom)
	}
	if res.PolyHigher == nil || len(res.PolyHigher) != 4 {
		t.Fatalf("poly fit: %v", res.PolyHigher)
	}
}

func TestAnalyzeAlphaNoEdges(t *testing.T) {
	nodesOnly := []trace.Event{{Kind: trace.AddNode, Day: 0, U: 0}}
	if _, err := analyzeAlpha(nodesOnly, AlphaOptions{}); err != ErrNoEdges {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultAgeBucketsCoverTrace(t *testing.T) {
	bs := DefaultAgeBuckets()
	if len(bs) != 6 {
		t.Fatalf("buckets = %d", len(bs))
	}
	// Contiguous coverage 0..780.
	for i := 1; i < len(bs); i++ {
		if bs[i].MinDays != bs[i-1].MaxDays {
			t.Fatalf("gap between buckets %d and %d", i-1, i)
		}
	}
	if bs[0].MinDays != 0 || bs[5].MaxDays != 780 {
		t.Fatalf("bounds: %+v", bs)
	}
}
