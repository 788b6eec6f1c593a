package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

func TestRunEmptyTrace(t *testing.T) {
	if _, err := RunPlan(context.Background(), (&trace.Trace{}).Source(), DefaultConfig(), nil); err != ErrEmptyTrace {
		t.Fatalf("err = %v", err)
	}
}

func TestAllFiguresExtract(t *testing.T) {
	res := fullRun(t)
	for _, id := range AllFigures {
		tab, err := res.Figure(id)
		if err != nil {
			t.Errorf("figure %s: %v", id, err)
			continue
		}
		if tab.Figure != id {
			t.Errorf("figure %s: id mismatch %q", id, tab.Figure)
		}
		if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
			t.Errorf("figure %s: empty table", id)
			continue
		}
		for ri, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("figure %s row %d: %d cells for %d columns", id, ri, len(row), len(tab.Columns))
				break
			}
		}
		if tab.Title == "" {
			t.Errorf("figure %s: missing title", id)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	res := fullRun(t)
	if _, err := res.Figure("fig99z"); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v", err)
	}
}

func TestSkippedStageReported(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFigures(context.Background(), tr.Source(), DefaultConfig(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1a", "fig3c", "fig4a", "fig5b", "fig8a", "fig9c"} {
		if _, err := res.Figure(id); !errors.Is(err, ErrStageSkipped) {
			t.Fatalf("figure %s: err = %v, want ErrStageSkipped", id, err)
		}
	}
	if _, err := res.Figure("fig2a"); err != nil {
		t.Fatalf("fig2a: %v", err)
	}
}

// countingSource counts the replay passes made over a source — each pass
// opens one cursor — and runs onOpen, when set, at every open.
type countingSource struct {
	trace.MetaSource
	opens  atomic.Int64
	onOpen func()
}

func (s *countingSource) Open() (trace.Cursor, error) {
	s.opened()
	return s.MetaSource.Open()
}

func (s *countingSource) OpenAt(day int32) (trace.Cursor, error) {
	s.opened()
	return s.MetaSource.OpenAt(day)
}

func (s *countingSource) opened() {
	s.opens.Add(1)
	if s.onOpen != nil {
		s.onOpen()
	}
}

// TestRunSinglePass asserts the headline property on a sweep-free plan:
// every subscribed stage shares one replay pass.
func TestRunSinglePass(t *testing.T) {
	cfg := gen.SmallConfig()
	cfg.Days = 150
	cfg.Merge = nil
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultConfig()
	pcfg.Alpha.Interval = 1000
	pcfg.Alpha.MinEdges = 2000
	pcfg.Alpha.PolyDegree = 2
	pcfg.PathEvery = 30
	pcfg.PathSources = 20

	src := &countingSource{MetaSource: tr.Source()}
	res, err := RunFigures(context.Background(), src, pcfg, "fig1a", "fig2a", "fig3c")
	if err != nil {
		t.Fatal(err)
	}
	if got := src.opens.Load(); got != 1 {
		t.Fatalf("replay passes = %d, want exactly 1", got)
	}
	if len(res.Growth) == 0 || res.Evolution == nil || res.Alpha == nil {
		t.Fatal("stages incomplete after the single pass")
	}
}

func TestGrowthSeriesConsistency(t *testing.T) {
	res := fullRun(t)
	var nodes, edges int64
	for _, g := range res.Growth {
		nodes += g.NodesAdded
		edges += g.EdgesAdded
		if g.Nodes != nodes || g.Edges != edges {
			t.Fatalf("cumulative mismatch at day %d", g.Day)
		}
	}
	if nodes != res.Meta.Nodes || edges != res.Meta.Edges {
		t.Fatalf("totals: %d/%d vs meta %d/%d", nodes, edges, res.Meta.Nodes, res.Meta.Edges)
	}
}

// TestHeadlineShapes holds the small golden run (seed 1) to the paper's
// qualitative shapes (DESIGN §5), fig3c's α fall included.
func TestHeadlineShapes(t *testing.T) {
	res := fullRun(t)
	checkHeadlineShapes(t, res)

	// Fig 3c: α under the higher-degree rule falls. At the small preset
	// this holds at some seeds only; TestAlphaFallsAcrossSeeds asserts it
	// where it holds at every seed, on the default preset.
	tab, err := res.Figure("fig3c")
	if err != nil {
		t.Fatal(err)
	}
	if first, last := tab.Notes["alpha_higher_first"], tab.Notes["alpha_higher_last"]; !(last < first) {
		t.Errorf("α under the higher-degree rule did not fall: %v -> %v", first, last)
	}
}

// TestHeadlineShapesAcrossSeeds asserts every TestHeadlineShapes claim
// but fig3c's α fall at seeds 2–5 of the small preset (TestHeadlineShapes
// runs seed 1), each a full plan under the golden run's config.
func TestHeadlineShapesAcrossSeeds(t *testing.T) {
	for seed := int64(2); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gcfg := gen.SmallConfig()
			gcfg.Seed = seed
			tr, err := gen.Generate(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunPlan(context.Background(), tr.Source(), parallelTestConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkHeadlineShapes(t, res)
		})
	}
}

// TestAlphaFallsAcrossSeeds: fig3c's α under the higher-degree rule ends
// below its first sample on the default preset at seeds 1–3, through a
// fig3c-only plan at DefaultConfig(). That is the scale where the
// generator's PA decay bends α down (TestPADecayBendsAlphaDown).
func TestAlphaFallsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("default-preset traces")
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Generating a default-preset trace is most of a seed's cost
			// and runs on one goroutine, so the seeds share the CPUs.
			t.Parallel()
			gcfg := gen.DefaultConfig()
			gcfg.Seed = seed
			tr, err := gen.Generate(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunFigures(context.Background(), tr.Source(), DefaultConfig(), "fig3c")
			if err != nil {
				t.Fatal(err)
			}
			tab, err := res.Figure("fig3c")
			if err != nil {
				t.Fatal(err)
			}
			first, last := tab.Notes["alpha_higher_first"], tab.Notes["alpha_higher_last"]
			t.Logf("α %.3f -> %.3f", first, last)
			if !(last < first) {
				t.Errorf("α under the higher-degree rule did not fall: %v -> %v", first, last)
			}
		})
	}
}

// checkHeadlineShapes asserts the paper's qualitative shapes that hold on
// the small preset at every seed TestHeadlineShapesAcrossSeeds runs.
func checkHeadlineShapes(t *testing.T, res *Result) {
	t.Helper()
	// Fig 1a: arrivals accelerate. The last 30-day window adds far more
	// nodes than the first (61 and 1,999 at the small preset); both lie
	// outside the merge's 30-day bump.
	const window = 30
	lastDay := res.Growth[len(res.Growth)-1].Day
	if merge := res.Meta.MergeDay; merge < window || merge+window > lastDay-window+1 {
		t.Fatalf("merge day %d leaves no 30-day window on both sides (last day %d)", merge, lastDay)
	}
	var firstArrivals, lastArrivals int64
	for _, g := range res.Growth {
		switch {
		case g.Day < window:
			firstArrivals += g.NodesAdded
		case g.Day > lastDay-window:
			lastArrivals += g.NodesAdded
		}
	}
	if lastArrivals < 10*firstArrivals {
		t.Errorf("fig1a: node arrivals did not accelerate: %d in days 0–%d, %d in the last %d days",
			firstArrivals, window-1, lastArrivals, window)
	}

	// Fig 1c: average degree grows over the pre-merge period.
	var early, late float64
	for _, m := range res.Metrics {
		if m.Day == 60 {
			early = m.AvgDegree
		}
		if m.Day == 144 {
			late = m.AvgDegree
		}
	}
	if late <= early {
		t.Errorf("avg degree did not grow pre-merge: %v -> %v", early, late)
	}

	// Fig 1e: clustering falls as the network grows. From the first
	// sample at or past day 120, past the tiny early graph's noise, to the
	// last: 0.31–0.33 → 0.18–0.21 at seeds 1–8, a fall of at least 30%.
	clustering, err := res.Figure("fig1e")
	if err != nil {
		t.Fatal(err)
	}
	rows := clustering.Rows
	mid := rows[sort.Search(len(rows), func(i int) bool { return rows[i][0] >= 120 })]
	if end := rows[len(rows)-1]; !(end[1] < 0.8*mid[1]) {
		t.Errorf("fig1e: clustering did not fall: %.3f on day %v, %.3f on day %v", mid[1], mid[0], end[1], end[0])
	}

	// Fig 5b: the top-5 communities cover a growing share of the
	// network, from the first snapshot to the last (0.15–0.58 → 0.60–0.71
	// at seeds 1–8).
	top5, err := res.Figure("fig5b")
	if err != nil {
		t.Fatal(err)
	}
	from, to := top5.Rows[0], top5.Rows[len(top5.Rows)-1]
	if total := len(from) - 1; !(to[total] > from[total]) {
		t.Errorf("fig5b: top-5 coverage did not grow: %.3f on day %v, %.3f on day %v", from[total], from[0], to[total], to[0])
	}

	// Fig 3c: the higher rule dominates.
	tab, err := res.Figure("fig3c")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Notes["gap_last"] <= 0 {
		t.Errorf("alpha gap = %v", tab.Notes["gap_last"])
	}

	// Fig 8: 5Q loses more users than Xiaonei.
	if res.Merge.InactiveAtMergeFiveQ <= res.Merge.InactiveAtMergeXiaonei {
		t.Errorf("duplicate asymmetry missing: %v vs %v",
			res.Merge.InactiveAtMergeFiveQ, res.Merge.InactiveAtMergeXiaonei)
	}
	// Fig 8a: 5Q's active share stays below Xiaonei's at every post-merge
	// sample, and ends below where it started.
	x, q := res.Merge.ActiveXiaonei, res.Merge.ActiveFiveQ
	if len(q) == 0 || len(q) != len(x) {
		t.Fatalf("active curves: %d Xiaonei samples, %d 5Q samples", len(x), len(q))
	}
	for i := range q {
		if !(q[i].All < x[i].All) {
			t.Errorf("fig8a day %d after the merge: 5Q active %.1f%% not below Xiaonei's %.1f%%",
				q[i].DaysAfter, q[i].All, x[i].All)
		}
	}
	if first, last := q[0].All, q[len(q)-1].All; !(last < first) {
		t.Errorf("fig8a: 5Q active share did not fall: %.1f%% -> %.1f%%", first, last)
	}

	// Fig 9c: distances end below 2.5 hops, and shrink from the first
	// sample to the last in both directions.
	first, last := res.Merge.Distances[0], res.Merge.Distances[len(res.Merge.Distances)-1]
	if last.XiaoneiTo5Q > 2.5 || math.IsNaN(last.XiaoneiTo5Q) {
		t.Errorf("end distance %v", last.XiaoneiTo5Q)
	}
	if !(last.XiaoneiTo5Q < first.XiaoneiTo5Q) || !(last.FiveQToXiaonei < first.FiveQToXiaonei) {
		t.Errorf("inter-OSN distance did not shrink: Xiaonei→5Q %v -> %v, 5Q→Xiaonei %v -> %v",
			first.XiaoneiTo5Q, last.XiaoneiTo5Q, first.FiveQToXiaonei, last.FiveQToXiaonei)
	}

	// Fig 4a: larger δ gives no higher modularity at matching days.
	if len(res.DeltaSweep) == 2 {
		tight, loose := res.DeltaSweep[0], res.DeltaSweep[1]
		var tightAvg, looseAvg float64
		n := len(tight.Stats)
		if len(loose.Stats) < n {
			n = len(loose.Stats)
		}
		for i := 0; i < n; i++ {
			tightAvg += tight.Stats[i].Modularity
			looseAvg += loose.Stats[i].Modularity
		}
		if n > 0 && looseAvg > tightAvg+0.05*float64(n) {
			t.Errorf("δ=0.1 modularity substantially above δ=0.01: %v vs %v", looseAvg, tightAvg)
		}
	}
}
