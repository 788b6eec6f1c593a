package core

import (
	"context"
	"errors"
	"math"
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

func TestHeadlineShapes(t *testing.T) {
	res := fullRun(t)

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

	// Fig 3c: α decays and the higher rule dominates.
	tab, err := res.Figure("fig3c")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Notes["gap_last"] <= 0 {
		t.Errorf("alpha gap = %v", tab.Notes["gap_last"])
	}
	if first, last := tab.Notes["alpha_higher_first"], tab.Notes["alpha_higher_last"]; !(last < first) {
		t.Errorf("α under the higher-degree rule did not fall: %v -> %v", first, last)
	}

	// Fig 8: 5Q loses more users than Xiaonei.
	if res.Merge.InactiveAtMergeFiveQ <= res.Merge.InactiveAtMergeXiaonei {
		t.Errorf("duplicate asymmetry missing: %v vs %v",
			res.Merge.InactiveAtMergeFiveQ, res.Merge.InactiveAtMergeXiaonei)
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
