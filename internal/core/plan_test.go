package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// planTrace generates the shared small merge trace for planner tests.
func planTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPlanFigureOnly is the demand-driven headline: requesting only fig1a
// subscribes exactly the metrics stage and costs exactly one replay pass.
func TestPlanFigureOnly(t *testing.T) {
	tr := planTrace(t)
	cfg := DefaultConfig()

	plan, err := Plan(cfg, "fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Stages(); len(got) != 1 || got[0] != "metrics" {
		t.Fatalf("stages = %v, want [metrics]", got)
	}
	if x := plan.instantiate(cfg, tr.Meta); x.eng.Stages() != 1 {
		t.Fatalf("engine stages = %d, want exactly 1 (metrics)", x.eng.Stages())
	}

	src := &countingSource{MetaSource: tr.Source()}
	res, err := RunPlan(context.Background(), src, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.opens.Load(); got != 1 {
		t.Fatalf("replay passes = %d, want exactly 1", got)
	}

	// The requested panel is pre-emitted into the keyed store; panels of
	// stages the plan never ran report ErrStageSkipped.
	if res.tables["fig1a"] == nil {
		t.Fatal("fig1a missing from the keyed table store")
	}
	tab, err := res.Figure("fig1a")
	if err != nil || len(tab.Rows) == 0 {
		t.Fatalf("fig1a: tab=%v err=%v", tab, err)
	}
	for _, id := range []string{"fig2a", "fig5b", "fig8a"} {
		if _, err := res.Figure(id); !errors.Is(err, ErrStageSkipped) {
			t.Fatalf("figure %s: err = %v, want ErrStageSkipped", id, err)
		}
	}
}

// TestPlanDependencyClosure asserts Finish-time dependencies are pulled in:
// the users stage (fig7a) and the SVM evaluation (fig6b) both require the
// community pipeline.
func TestPlanDependencyClosure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeltaSweep = []float64{0.04} // fig4a plans the sweep stage
	cases := []struct {
		fig  string
		want []string
	}{
		{"fig7a", []string{"community", "users"}},
		{"fig6b", []string{"community", "svm"}},
		{"fig4a", []string{"sweep"}},
		{"fig9c", []string{"osnmerge"}},
	}
	for _, c := range cases {
		plan, err := Plan(cfg, c.fig)
		if err != nil {
			t.Fatalf("%s: %v", c.fig, err)
		}
		got := plan.Stages()
		if len(got) != len(c.want) {
			t.Fatalf("%s: stages = %v, want %v", c.fig, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: stages = %v, want %v", c.fig, got, c.want)
			}
		}
	}
}

// TestPlanUnknownFigure asserts bad ids fail at plan time, not run time.
func TestPlanUnknownFigure(t *testing.T) {
	if _, err := Plan(DefaultConfig(), "fig1a", "fig99z"); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v, want ErrUnknownFigure", err)
	}
	if _, err := RunFigures(context.Background(), planTrace(t).Source(), DefaultConfig(), "nope"); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v, want ErrUnknownFigure", err)
	}
}

// TestPlanNoDeltaSweep asserts a fig4 request against a δ-less config is
// rejected at plan time instead of silently producing a skipped panel.
func TestPlanNoDeltaSweep(t *testing.T) {
	if _, err := Plan(DefaultConfig(), "fig4a"); !errors.Is(err, ErrNoDeltaSweep) {
		t.Fatalf("err = %v, want ErrNoDeltaSweep", err)
	}
	cfg := DefaultConfig()
	cfg.DeltaSweep = []float64{0.04}
	if _, err := Plan(cfg, "fig4a"); err != nil {
		t.Fatalf("err = %v with a configured sweep", err)
	}
}

// TestPlanFromConfig pins what a plan with no figure list means: every
// registered stage, in registry order, whatever the config. Fingerprints
// and checkpoint bytes of every no-figure run (rranalyze without -only,
// the benchmark's full replay, the serving daemon's warm plan) hash this
// exact list.
func TestPlanFromConfig(t *testing.T) {
	want := []string{"metrics", "evolution", "alpha", "community", "users", "svm", "sweep", "osnmerge"}
	cfg := DefaultConfig()
	plan, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Stages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	// An empty δ list leaves the sweep in the plan; it subscribes nothing.
	cfg.DeltaSweep = nil
	if plan, err = Plan(cfg); err != nil {
		t.Fatal(err)
	}
	if got := plan.Stages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stages with no δ-sweep = %v, want %v", got, want)
	}
	if got := plan.Figures(); !reflect.DeepEqual(got, AllFigures) {
		t.Fatalf("figures = %v, want AllFigures", got)
	}
}

// TestRunPlanCancel asserts a mid-replay cancellation surfaces
// context.Canceled promptly — the pass stops at the next day boundary —
// and returns no partial Result.
func TestRunPlanCancel(t *testing.T) {
	tr := planTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelDay = 20
	var lastDay atomic.Int32
	cfg := DefaultConfig()
	cfg.OnProgress = func(day int32, events int64) {
		lastDay.Store(day)
		if day == cancelDay {
			cancel()
		}
	}
	res, err := RunFigures(ctx, tr.Source(), cfg, "fig1a")
	if res != nil {
		t.Fatalf("got partial result %+v, want nil", res.Meta)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := lastDay.Load(); got != cancelDay {
		t.Fatalf("replay continued to day %d after cancellation on day %d", got, cancelDay)
	}
}

// TestRunPlanCancelSweep asserts cancellation reaches the δ-sweep's pool
// fan-out mid-replay: cancelling as the first sweep pass starts aborts it
// at a day boundary without producing a result.
func TestRunPlanCancelSweep(t *testing.T) {
	tr := planTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := DefaultConfig()
	cfg.DeltaSweep = []float64{0.01}
	res, err := RunFigures(ctx, &countingSource{MetaSource: tr.Source(), onOpen: cancel}, cfg, "fig4a")
	if res != nil {
		t.Fatal("got result from a cancelled sweep run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunPlanCancelledBeforeStart asserts an already-cancelled context
// never yields a Result, even for plans whose stages end up doing no
// shared-pass or pool work at all.
func TestRunPlanCancelledBeforeStart(t *testing.T) {
	tr := planTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunFigures(ctx, tr.Source(), DefaultConfig(), "fig1a")
	if res != nil {
		t.Fatal("got result from a pre-cancelled run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStageFor asserts the registry's figure -> stage mapping covers every
// panel and rejects unknown ids.
func TestStageFor(t *testing.T) {
	want := map[string]string{
		"fig1a": "metrics",
		"fig2b": "evolution",
		"fig3c": "alpha",
		"fig4b": "sweep",
		"fig5a": "community",
		"fig6b": "svm",
		"fig7c": "users",
		"fig8b": "osnmerge",
	}
	for id, stage := range want {
		got, err := StageFor(id)
		if err != nil || got != stage {
			t.Fatalf("StageFor(%s) = %q, %v; want %q", id, got, err, stage)
		}
	}
	for _, id := range AllFigures {
		if _, err := StageFor(id); err != nil {
			t.Fatalf("StageFor(%s): %v", id, err)
		}
	}
	if _, err := StageFor("fig0x"); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v, want ErrUnknownFigure", err)
	}
}

// TestRegistryDescriptive asserts Registry returns the descriptive view in
// execution order with dependencies intact.
func TestRegistryDescriptive(t *testing.T) {
	specs := Registry()
	if len(specs) != 8 {
		t.Fatalf("registry has %d specs, want 8", len(specs))
	}
	figures := 0
	byName := map[string]StageSpec{}
	for _, s := range specs {
		byName[s.Name] = s
		figures += len(s.Figures)
	}
	if figures != len(AllFigures) {
		t.Fatalf("registry covers %d figures, want %d", figures, len(AllFigures))
	}
	if deps := byName["users"].Deps; len(deps) != 1 || deps[0] != "community" {
		t.Fatalf("users deps = %v, want [community]", deps)
	}
	if deps := byName["svm"].Deps; len(deps) != 1 || deps[0] != "community" {
		t.Fatalf("svm deps = %v, want [community]", deps)
	}
}
