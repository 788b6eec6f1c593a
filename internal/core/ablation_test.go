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
