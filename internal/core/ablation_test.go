package core

import (
	"context"
	"testing"

	"repro/internal/gen"
)

// TestIncrementalSeedStabilizesTracking guards the community pipeline's
// incremental-Louvain design (§4, DESIGN §5): seeding each snapshot's
// Louvain with the previous snapshot's assignment must make tracked
// communities markedly more stable across snapshots than detecting every
// snapshot from scratch. Both arms run the community stage through the
// plan at the paper's defaults on the small preset; the cold arm only
// switches the seed off. Stability is the mean per-snapshot tracking
// similarity over the snapshots that matched anything.
func TestIncrementalSeedStabilizesTracking(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := tr.Source()
	cfg := DefaultConfig()
	plan, err := Plan(cfg, "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	avgSim := func(cold bool) float64 {
		x := plan.instantiate(cfg, src.Meta())
		if cold {
			x.rt.comm.ColdStart()
		}
		res, _, err := x.run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for _, s := range res.Community.Stats {
			if s.AvgSimilarity > 0 {
				sum += s.AvgSimilarity
				n++
			}
		}
		if n == 0 {
			t.Fatal("no snapshot matched any community")
		}
		return sum / float64(n)
	}
	inc, cold := avgSim(false), avgSim(true)
	t.Logf("mean tracking similarity: incremental %.3f, cold start %.3f", inc, cold)
	if inc-cold < 0.1 {
		t.Errorf("incremental seed: similarity %.3f, cold start %.3f; want a gap of at least 0.1", inc, cold)
	}
}

// TestDestinationRuleSeparatesAlpha guards the §3.2 destination-rule
// ambiguity the Fig 3 analysis resolves (DESIGN §5): the paper picks the
// higher-degree endpoint of a new edge as its PA destination, and the
// fitted α under that rule must sit clearly above α under a random-endpoint
// rule, or Fig 3's "PA is strong" reading would depend on the rule. The
// alpha stage runs through the plan at the paper's defaults on the small
// preset.
func TestDestinationRuleSeparatesAlpha(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFigures(context.Background(), tr.Source(), DefaultConfig(), "fig3c")
	if err != nil {
		t.Fatal(err)
	}
	higher, random := res.Alpha.FinalAlphaHigher, res.Alpha.FinalAlphaRandom
	t.Logf("final α: higher-degree rule %.3f, random rule %.3f", higher, random)
	if higher-random < 0.15 {
		t.Errorf("final α: higher-degree rule %.3f, random rule %.3f; want a gap of at least 0.15", higher, random)
	}
}

// TestTriangleClosureRaisesClustering guards the generator's
// triangle-closure rule (DESIGN §5): closing triangles is what gives the
// synthetic network the paper's high clustering (Fig 1e), so switching it
// off must lower the final clustering coefficient clearly. Both arms run
// the metrics and community stages through the plan at the paper's
// defaults on the small preset; the open arm only sets
// Attach.TriangleProb to 0. Final modularity is logged beside it: closure
// lowers it.
func TestTriangleClosureRaisesClustering(t *testing.T) {
	final := func(triangleProb float64) (clustering, modularity float64) {
		gcfg := gen.SmallConfig()
		gcfg.Attach.TriangleProb = triangleProb
		tr, err := gen.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFigures(context.Background(), tr.Source(), DefaultConfig(), "fig1e", "fig5a")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) == 0 || res.Community == nil || len(res.Community.Stats) == 0 {
			t.Fatal("run took no metrics or community snapshot")
		}
		return res.Metrics[len(res.Metrics)-1].Clustering, res.Community.Stats[len(res.Community.Stats)-1].Modularity
	}
	closedC, closedQ := final(gen.SmallConfig().Attach.TriangleProb)
	openC, openQ := final(0)
	t.Logf("final clustering: closure %.3f, none %.3f; final modularity: closure %.3f, none %.3f", closedC, openC, closedQ, openQ)
	if closedC-openC < 0.03 {
		t.Errorf("final clustering: closure %.3f, none %.3f; want a gap of at least 0.03", closedC, openC)
	}
}

// TestPADecayBendsAlphaDown guards the Fig 3c mechanism (DESIGN §5): the
// generator's PA decay is what makes the higher-degree α(t) fall over the
// run. Both arms run the default preset with the merge off through the
// plan at DefaultConfig() — the scale where the arms separate; on the
// small preset α rises in both. With the decay α must end below where it
// started, and with a constant mixing weight (PALogSlope = 0) it must end
// clearly above the decay arm.
func TestPADecayBendsAlphaDown(t *testing.T) {
	alpha := func(slope float64) (first, last float64) {
		gcfg := gen.DefaultConfig()
		gcfg.Merge = nil
		gcfg.Attach.PALogSlope = slope
		tr, err := gen.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFigures(context.Background(), tr.Source(), DefaultConfig(), "fig3c")
		if err != nil {
			t.Fatal(err)
		}
		s := res.Alpha.Samples
		if len(s) < 2 {
			t.Fatalf("PALogSlope=%v: %d α samples, want at least 2", slope, len(s))
		}
		return s[0].AlphaHigher, s[len(s)-1].AlphaHigher
	}
	df, dl := alpha(gen.DefaultConfig().Attach.PALogSlope)
	cf, cl := alpha(0)
	t.Logf("α: with decay %.3f -> %.3f, constant PA %.3f -> %.3f", df, dl, cf, cl)
	if dl >= df {
		t.Errorf("with decay α went %.3f -> %.3f; want it to end below its start", df, dl)
	}
	if cl-dl < 0.05 {
		t.Errorf("final α: constant PA %.3f, with decay %.3f; want constant PA at least 0.05 above", cl, dl)
	}
}
