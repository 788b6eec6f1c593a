// Benchmarks: one per figure panel of the paper's evaluation, each running
// the analysis stage that regenerates that panel's series on a shared
// bench-scale trace, plus the ablation benches called out in DESIGN.md §5.
// Run e.g.:
//
//	go test -bench=Fig3c -benchmem
//	go test -bench=Ablation -benchmem
//
// Each benchmark reports headline values through b.Log on the first
// iteration, so `go test -bench=. -v` doubles as the figure harness.
package repro

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracking"
)

var (
	benchOnce sync.Once
	benchTr   *trace.Trace
	benchErr  error
)

// benchTrace generates the shared bench-scale trace (the SmallConfig
// Renren+5Q scenario) once, outside any timer.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	benchOnce.Do(func() {
		benchTr, benchErr = gen.Generate(gen.SmallConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTr
}

// metricsResult runs the Fig 1 stage only.
func metricsResult(b *testing.B, tr *trace.Trace) *core.Result {
	cfg := core.DefaultConfig()
	cfg.SkipEvolution = true
	cfg.SkipCommunity = true
	cfg.SkipMerge = true
	cfg.PathEvery = 15
	cfg.PathSources = 50
	res, err := core.Run(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchFigure(b *testing.B, id string, run func(*trace.Trace) (*core.Result, error)) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(tr)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := res.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s: %q, %d rows, notes=%v", id, tab.Title, len(tab.Rows), tab.Notes)
		}
	}
}

// --- Fig 1: network-level metrics ---

func fig1Run(b *testing.B) func(*trace.Trace) (*core.Result, error) {
	return func(tr *trace.Trace) (*core.Result, error) { return metricsResult(b, tr), nil }
}

func BenchmarkFig1a(b *testing.B) { benchFigure(b, "fig1a", fig1Run(b)) }
func BenchmarkFig1b(b *testing.B) { benchFigure(b, "fig1b", fig1Run(b)) }
func BenchmarkFig1c(b *testing.B) { benchFigure(b, "fig1c", fig1Run(b)) }
func BenchmarkFig1d(b *testing.B) { benchFigure(b, "fig1d", fig1Run(b)) }
func BenchmarkFig1e(b *testing.B) { benchFigure(b, "fig1e", fig1Run(b)) }
func BenchmarkFig1f(b *testing.B) { benchFigure(b, "fig1f", fig1Run(b)) }

// --- Fig 2–3: node-level edge evolution and PA strength ---

func evolutionRun(tr *trace.Trace) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SkipMetrics = true
	cfg.SkipCommunity = true
	cfg.SkipMerge = true
	cfg.Alpha = evolution.AlphaOptions{Interval: 2000, MinEdges: 4000, PolyDegree: 3}
	return core.Run(tr, cfg)
}

func BenchmarkFig2a(b *testing.B) { benchFigure(b, "fig2a", evolutionRun) }
func BenchmarkFig2b(b *testing.B) { benchFigure(b, "fig2b", evolutionRun) }
func BenchmarkFig2c(b *testing.B) { benchFigure(b, "fig2c", evolutionRun) }
func BenchmarkFig3a(b *testing.B) { benchFigure(b, "fig3a", evolutionRun) }
func BenchmarkFig3b(b *testing.B) { benchFigure(b, "fig3b", evolutionRun) }
func BenchmarkFig3c(b *testing.B) { benchFigure(b, "fig3c", evolutionRun) }

// --- Fig 4: δ sensitivity sweep ---

func deltaSweepRun(tr *trace.Trace) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SkipMetrics = true
	cfg.SkipEvolution = true
	cfg.SkipMerge = true
	cfg.Community.SizeDistDays = []int32{251}
	cfg.DeltaSweep = []float64{0.0001, 0.01, 0.04, 0.1, 0.3}
	return core.Run(tr, cfg)
}

func BenchmarkFig4a(b *testing.B) { benchFigure(b, "fig4a", deltaSweepRun) }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "fig4b", deltaSweepRun) }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, "fig4c", deltaSweepRun) }

// --- Fig 5–7: community statistics, prediction, user impact ---

func communityRun(tr *trace.Trace) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SkipMetrics = true
	cfg.SkipEvolution = true
	cfg.SkipMerge = true
	cfg.Community.SizeDistDays = []int32{200, 251, 296}
	return core.Run(tr, cfg)
}

func BenchmarkFig5a(b *testing.B) { benchFigure(b, "fig5a", communityRun) }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "fig5b", communityRun) }
func BenchmarkFig5c(b *testing.B) { benchFigure(b, "fig5c", communityRun) }
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "fig6a", communityRun) }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "fig6b", communityRun) }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "fig6c", communityRun) }
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "fig7a", communityRun) }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "fig7b", communityRun) }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "fig7c", communityRun) }

// --- Fig 8–9: network merge ---

func mergeRun(tr *trace.Trace) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SkipMetrics = true
	cfg.SkipEvolution = true
	cfg.SkipCommunity = true
	return core.Run(tr, cfg)
}

func BenchmarkFig8a(b *testing.B) { benchFigure(b, "fig8a", mergeRun) }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "fig8b", mergeRun) }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "fig8c", mergeRun) }
func BenchmarkFig9a(b *testing.B) { benchFigure(b, "fig9a", mergeRun) }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, "fig9b", mergeRun) }
func BenchmarkFig9c(b *testing.B) { benchFigure(b, "fig9c", mergeRun) }

// --- Engine vs batch: the single-pass refactor's headline comparison ---

// pipelineConfig is a full multi-scale configuration (every stage plus a
// δ-sweep) at bench scale.
func pipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha = evolution.AlphaOptions{Interval: 2000, MinEdges: 4000, PolyDegree: 3}
	cfg.Community.SizeDistDays = []int32{251}
	cfg.DeltaSweep = []float64{0.01, 0.1}
	cfg.PathEvery = 30
	cfg.PathSources = 30
	return cfg
}

// BenchmarkPipelineEngine runs the full pipeline on the streaming engine:
// one shared replay pass for all non-sweep stages, δ-sweep and SVM
// evaluation fanned out on the worker pool.
func BenchmarkPipelineEngine(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(tr, pipelineConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBatch runs the same configuration through the batch
// reference path: one independent replay (and graph rebuild) per analysis.
func BenchmarkPipelineBatch(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunBatch(tr, pipelineConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureOnly is the demand-driven planner's headline: serving one
// panel (fig1a, the common CLI/server case) through a minimal plan versus
// paying for the full multi-scale pipeline. The partial-run speedup is the
// perf-trajectory number this benchmark tracks.
func BenchmarkFigureOnly(b *testing.B) {
	tr := benchTrace(b)
	ctx := context.Background()
	b.Run("Fig1aPlan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunFigures(ctx, tr.Source(), pipelineConfig(), "fig1a")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Figure("fig1a"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullPipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunPlan(ctx, tr.Source(), pipelineConfig(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Figure("fig1a"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Out-of-core data plane: replay memory at million-node scale ---

// liveHeapMB forces a GC and returns the live heap in MB; keep holds the
// replay's outputs (and, on the slice path, the event slice) alive across
// the measurement so it reflects what each data plane must keep resident.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, k := range keep {
		runtime.KeepAlive(k)
	}
	return float64(ms.HeapAlloc) / 1e6
}

// BenchmarkLargeReplayMemory is the data-plane tentpole's memory claim on
// the million-node preset: replaying from a disk-backed FileSource keeps
// the live heap at O(state) — the graph plus per-node columns — while the
// materializing slice path pays O(events) on top (16 bytes × ~10⁷ events
// held for the whole replay). The trace is stream-generated to disk once,
// outside any timer; run with e.g.
//
//	go test -bench=LargeReplayMemory -benchtime=1x
//
// (-short swaps in the ~10⁵-node default preset). The GenStream subtest
// replays straight from the generator through a trace.Sink — no slice, no
// file — as the third data plane.
func BenchmarkLargeReplayMemory(b *testing.B) {
	cfg := gen.LargeConfig()
	if testing.Short() {
		cfg = gen.DefaultConfig()
	}
	path := filepath.Join(b.TempDir(), "large.trace")
	meta, err := gen.GenerateToFile(cfg, path)
	if err != nil {
		b.Fatal(err)
	}
	events := meta.Nodes + meta.Edges
	b.Logf("trace: %d nodes, %d edges (%d events on disk)", meta.Nodes, meta.Edges, events)

	b.Run("FileSource", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src, err := trace.OpenFileSource(path)
			if err != nil {
				b.Fatal(err)
			}
			st, err := trace.ReplaySource(src, trace.Hooks{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(liveHeapMB(st), "live-MB")
			b.ReportMetric(float64(st.Graph.NumEdges()), "edges")
		}
	})
	b.Run("Slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := trace.Decode(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			st, err := trace.Replay(tr.Events, trace.Hooks{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(liveHeapMB(st, tr), "live-MB")
			b.ReportMetric(float64(st.Graph.NumEdges()), "edges")
		}
	})
	b.Run("GenStream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := trace.NewState(int(meta.Nodes), int(meta.Edges))
			sink := trace.NewSink(st, trace.Hooks{})
			if _, err := gen.GenerateStream(cfg, sink.Push); err != nil {
				b.Fatal(err)
			}
			sink.Finish()
			b.ReportMetric(liveHeapMB(st), "live-MB")
			b.ReportMetric(float64(st.Graph.NumEdges()), "edges")
		}
	})
}

// --- The shared-snapshot δ-sweep: one pass + one graph vs 1-per-δ ---

// samplePeakHeap starts a background sampler of HeapAlloc and returns a
// stop function reporting the peak in MB seen during the measured region.
// It is an upper bound on the live set (uncollected garbage counts), but
// the old-vs-new differential it exists for — K live replay graphs versus
// one shared graph — dwarfs that noise.
func samplePeakHeap() (stop func() float64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := ms.HeapAlloc
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return float64(peak) / 1e6
	}
}

// BenchmarkDeltaSweep is the shared-snapshot sweep's headline: a K-δ Fig 4
// sensitivity sweep over a disk-backed trace through the new single-pass
// path (one shared replay, one live graph, per-δ detectors fanned out
// against frozen CSR snapshots) versus the retained re-open-per-δ
// reference path (community.RunSource per δ on the pool — the
// pre-refactor plan fan-out, 1 pass and 1 live graph per δ). Wall-clock
// isolates the tentpole's claim — the K redundant replays and graphs are
// gone; the per-δ Louvain+tracking compute is identical in both arms —
// and peak-live-MB shows the graph count no longer scaling with K.
//
// Defaults to gen.DefaultConfig scale (~10⁵ nodes); -short swaps in the
// test-scale preset for the CI smoke. BENCH_sweep.json tracks the
// datapoints.
func BenchmarkDeltaSweep(b *testing.B) {
	deltas := []float64{0.02, 0.03, 0.04, 0.06, 0.08, 0.12, 0.16, 0.24, 0.32, 0.48}
	gcfg := gen.DefaultConfig()
	snapshotEvery := int32(300)
	if testing.Short() {
		gcfg = gen.SmallConfig()
		snapshotEvery = 60 // the 300-day test preset needs a denser grid
	}
	path := filepath.Join(b.TempDir(), "sweep.trace")
	meta, err := gen.GenerateToFile(gcfg, path)
	if err != nil {
		b.Fatal(err)
	}
	src, err := trace.OpenFileSource(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d nodes, %d edges, %d days; %d δ values", meta.Nodes, meta.Edges, meta.Days, len(deltas))

	opt := community.DefaultOptions()
	// A coarse snapshot schedule: the per-snapshot detection compute
	// (Louvain + tracking) is identical in both arms by construction, so
	// thinning it makes the measured ratio isolate what the refactor
	// actually changes — the K redundant replay passes and live graphs —
	// and keeps a measured iteration in seconds. At the paper's 3-day
	// cadence the sweep is detection-bound and the same comparison gives
	// ~1.25x wall-clock; the memory ratio is schedule-independent.
	opt.SnapshotEvery = snapshotEvery
	ctx := context.Background()

	b.Run("SharedSnapshot", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Community = opt
		cfg.DeltaSweep = deltas
		for i := 0; i < b.N; i++ {
			stop := samplePeakHeap()
			res, err := core.RunFigures(ctx, src, cfg, "fig4a")
			peak := stop()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.DeltaSweep) != len(deltas) {
				b.Fatalf("sweep runs = %d", len(res.DeltaSweep))
			}
			b.ReportMetric(peak, "peak-live-MB")
		}
	})
	b.Run("PerPass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stop := samplePeakHeap()
			// The reference arm keeps the old fan-out's own concurrency
			// (one worker per δ, as NewPool(0) gave it on a K-core box),
			// so its K live graphs coexist exactly as they used to.
			pool := engine.NewPool(len(deltas))
			runs := make([]*community.Result, len(deltas))
			for j, d := range deltas {
				j, d := j, d
				o := opt
				o.Delta = d
				pool.GoContext(ctx, func() error {
					dr, err := community.RunSourceContext(ctx, src, o)
					if err != nil {
						return err
					}
					runs[j] = dr
					return nil
				})
			}
			err := pool.Wait()
			peak := stop()
			if err != nil {
				b.Fatal(err)
			}
			for j := range runs {
				if runs[j] == nil {
					b.Fatalf("δ=%v: no result", deltas[j])
				}
			}
			b.ReportMetric(peak, "peak-live-MB")
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationDestSelection quantifies the §3.2 destination-rule
// ambiguity: fitted α under the higher-degree vs random endpoint rules.
func BenchmarkAblationDestSelection(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := evolution.AnalyzeAlpha(tr.Events, evolution.AlphaOptions{Interval: 2000, MinEdges: 4000, Seed: 1, PolyDegree: 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("alpha(higher)=%.3f mse=%.2e | alpha(random)=%.3f mse=%.2e | gap=%.3f",
				res.FinalAlphaHigher, res.FinalMSEHigher,
				res.FinalAlphaRandom, res.FinalMSERandom,
				res.FinalAlphaHigher-res.FinalAlphaRandom)
		}
	}
}

// BenchmarkAblationIncremental compares tracking stability (average
// cross-snapshot similarity) with and without the incremental Louvain seed.
func BenchmarkAblationIncremental(b *testing.B) {
	tr := benchTrace(b)
	avgSim := func(incremental bool) float64 {
		var prev []int32
		var sum float64
		var n int
		tracker := tracking.NewTracker(10)
		_, err := trace.Replay(tr.Events, trace.Hooks{
			OnDayEnd: func(st *trace.State, day int32) {
				if day < 20 || (day-20)%6 != 0 || st.Graph.NumNodes() < 64 {
					return
				}
				var init []int32
				if incremental && prev != nil {
					init = make([]int32, st.Graph.NumNodes())
					for i := range init {
						if i < len(prev) {
							init[i] = prev[i]
						} else {
							init[i] = -1
						}
					}
				}
				lr, err := louvain.Run(st.Graph, louvain.Options{Delta: 0.04, MaxLevels: 1, Seed: 1, Init: init})
				if err != nil {
					b.Fatal(err)
				}
				prev = lr.Community
				snap := tracker.Advance(day, st.Graph, tracking.Assignment(lr.Community))
				if snap.AvgSimilarity > 0 {
					sum += snap.AvgSimilarity
					n++
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := avgSim(true)
		cold := avgSim(false)
		if i == 0 {
			b.Logf("avg similarity: incremental=%.3f cold=%.3f", inc, cold)
		}
	}
}

// BenchmarkAblationPADecay is the control experiment for Fig 3c: with the
// PA-decay mechanism disabled (constant mixing weight), α(t) stays flat.
func BenchmarkAblationPADecay(b *testing.B) {
	mkTrace := func(slope float64) *trace.Trace {
		cfg := gen.SmallConfig()
		cfg.Merge = nil
		cfg.Attach.PALogSlope = slope
		tr, err := gen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	measure := func(tr *trace.Trace) (first, last float64) {
		res, err := evolution.AnalyzeAlpha(tr.Events, evolution.AlphaOptions{Interval: 2000, MinEdges: 4000, Seed: 1, PolyDegree: 2})
		if err != nil {
			b.Fatal(err)
		}
		return res.Samples[0].AlphaHigher, res.Samples[len(res.Samples)-1].AlphaHigher
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		df, dl := measure(mkTrace(gen.SmallConfig().Attach.PALogSlope))
		ff, fl := measure(mkTrace(0))
		if i == 0 {
			b.Logf("with decay: alpha %.3f -> %.3f (Δ%.3f) | constant PA: %.3f -> %.3f (Δ%.3f)",
				df, dl, dl-df, ff, fl, fl-ff)
		}
	}
}

// BenchmarkAblationTriangleClosure shows triangle closure's effect on the
// final clustering coefficient and modularity.
func BenchmarkAblationTriangleClosure(b *testing.B) {
	build := func(p float64) (clustering, modularity float64) {
		cfg := gen.SmallConfig()
		cfg.Merge = nil
		cfg.Days = 200
		cfg.Attach.TriangleProb = p
		tr, err := gen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := trace.Replay(tr.Events, trace.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRand(1)
		cl := metrics.SampledClustering(st.Graph, 1000, rng)
		lr, err := louvain.Run(st.Graph, louvain.Options{Delta: 0.04, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return cl, lr.Modularity
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1, m1 := build(gen.SmallConfig().Attach.TriangleProb)
		c0, m0 := build(0)
		if i == 0 {
			b.Logf("triangle on:  clustering=%.3f modularity=%.3f", c1, m1)
			b.Logf("triangle off: clustering=%.3f modularity=%.3f", c0, m0)
		}
	}
}

// BenchmarkSubstrates microbenchmarks the hot substrate operations.
func BenchmarkSubstrateBFS(b *testing.B) {
	tr := benchTrace(b)
	st, err := trace.Replay(tr.Events, trace.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Graph.BFS(graph.NodeID(i % st.Graph.NumNodes()))
	}
}

func BenchmarkSubstrateLouvain(b *testing.B) {
	tr := benchTrace(b)
	st, err := trace.Replay(tr.Events, trace.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := louvain.Run(st.Graph, louvain.Options{Delta: 0.04, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorAdvance measures the §4 detection layer on its own: the
// paper's 3-day snapshot chain over the SmallConfig trace, each snapshot
// frozen, prepared for Louvain and handed to one δ's Detector (incremental
// Louvain plus tracking), which is what the δ-sweep does per detector.
// The replay feeding the schedule is timed too, but is a small share.
func BenchmarkDetectorAdvance(b *testing.B) {
	tr := benchTrace(b)
	opt := community.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := community.NewDetector(opt)
		snapshots := 0
		_, err := trace.Replay(tr.Events, trace.Hooks{
			OnDayEnd: func(st *trace.State, day int32) {
				if day < opt.StartDay || (day-opt.StartDay)%opt.SnapshotEvery != 0 || st.Graph.NumNodes() < opt.MinNodes {
					return
				}
				f := st.Graph.Freeze()
				det.AdvancePrepared(day, f, louvain.Prepare(f))
				snapshots++
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := det.Finish(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(snapshots), "snapshots/op")
	}
}

// BenchmarkPathSampler measures the Fig 1d path-length estimator on its
// own: the paper's 100 sampled sources (two lane batches of the
// bit-parallel BFS) on the final SmallConfig graph, at one and two
// workers. Each op draws a fresh sample from the same rng stream.
func BenchmarkPathSampler(b *testing.B) {
	st, err := trace.Replay(benchTrace(b).Events, trace.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := metrics.PathSampler{Workers: workers}
			rng := stats.NewRand(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Sample(st.Graph, 100, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSubstrateGenerate(b *testing.B) {
	cfg := gen.SmallConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateMergeAnalysis(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := osnmerge.Analyze(tr.Events, tr.Meta.MergeDay, osnmerge.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalResume is the checkpointed state plane's headline
// (DESIGN.md §6): serving the analysis after a trace gained days, as a
// from-zero full replay versus a resume from the end-of-run checkpoint
// the shorter trace's run left behind. The setup mimics the real
// incremental workflow — generate a base trace, run it once with
// checkpoints enabled, regenerate with a longer horizon (same seed: the
// base trace is an exact prefix, pinned by
// TestExtendedHorizonKeepsPrefix) — so the Resume arm restores state
// written against the *old* file and replays only the appended days off
// the new file's day index, writing its own end-of-run checkpoint for
// the next increment (each timed iteration starts from a fresh copy of
// the base run's checkpoint chain). Both arms produce bit-identical
// figure tables (asserted here once; TestResumeMatchesFromZero holds it
// per stage set).
//
// Two append widths bound the scenario: +30 days and +7 days. The
// speedup is governed by how much analysis mass the appended window
// carries — the default preset compounds ~0.7%/day, so +30 days is ~22%
// of all events (and the most expensive ones), while a weekly increment
// is ~5%.
//
// Defaults to gen.DefaultConfig scale (771-day base, ~10⁵ nodes);
// -short swaps in the test-scale preset for the CI smoke.
// BENCH_checkpoint.json tracks the datapoints.
func BenchmarkIncrementalResume(b *testing.B) {
	gcfg := gen.DefaultConfig()
	if testing.Short() {
		gcfg = gen.SmallConfig()
	}

	dir := b.TempDir()
	basePath := filepath.Join(dir, "base.trace")
	baseMeta, err := gen.GenerateToFile(gcfg, basePath)
	if err != nil {
		b.Fatal(err)
	}
	baseSrc, err := trace.OpenFileSource(basePath)
	if err != nil {
		b.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.DeltaSweep = nil // the sweep has its own bench; keep this one cadence-bound
	baseCkpt := filepath.Join(dir, "ckpt-base")
	cfg.CheckpointDir = baseCkpt
	cfg.CheckpointEvery = 90

	// The base run: the analysis that existed before the trace grew,
	// leaving the checkpoint chain (cadence days plus the end-of-run
	// day) behind. Untimed.
	if _, err := core.RunPlan(context.Background(), baseSrc, cfg, nil); err != nil {
		b.Fatal(err)
	}
	latest := baseMeta.Days - 1 // the end-of-run checkpoint day

	// cloneCheckpoints copies the base chain into a fresh directory, so
	// one iteration's end-of-run checkpoint can't serve the next one.
	cloneCheckpoints := func(b *testing.B) string {
		b.Helper()
		clone := filepath.Join(b.TempDir(), "ckpt")
		if err := os.MkdirAll(clone, 0o755); err != nil {
			b.Fatal(err)
		}
		ents, err := os.ReadDir(baseCkpt)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(baseCkpt, e.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(clone, e.Name()), raw, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		return clone
	}

	for _, appendDays := range []int32{30, 7} {
		b.Run(fmt.Sprintf("Append%d", appendDays), func(b *testing.B) {
			extCfg := gcfg
			extCfg.Days += appendDays
			extPath := filepath.Join(dir, fmt.Sprintf("ext%d.trace", appendDays))
			extMeta, err := gen.GenerateToFile(extCfg, extPath)
			if err != nil {
				b.Fatal(err)
			}
			extSrc, err := trace.OpenFileSource(extPath)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("extended trace: %d nodes, %d edges, %d days (+%d); resume from day %d",
				extMeta.Nodes, extMeta.Edges, extMeta.Days, appendDays, latest)

			plainCfg := cfg
			plainCfg.CheckpointDir = "" // the from-zero arm neither writes nor reads checkpoints
			resumeCfg := cfg
			resumeCfg.Resume = true

			// Equivalence first, outside the timers: resumed-after-append
			// must serve the same tables as the from-zero replay.
			fullRes, err := core.RunPlan(context.Background(), extSrc, plainCfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			resumeCfg.CheckpointDir = cloneCheckpoints(b)
			resRes, err := core.RunPlan(context.Background(), extSrc, resumeCfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if resRes.ResumedFromDay != latest {
				b.Fatalf("ResumedFromDay = %d, want %d", resRes.ResumedFromDay, latest)
			}
			for _, id := range []string{"fig1a", "fig2c", "fig3c", "fig5b", "fig8c"} {
				ft, ferr := fullRes.Figure(id)
				rt, rerr := resRes.Figure(id)
				if (ferr == nil) != (rerr == nil) {
					b.Fatalf("%s: availability diverged (%v vs %v)", id, ferr, rerr)
				}
				if ferr == nil && !reflect.DeepEqual(ft, rt) {
					b.Fatalf("%s: resumed table diverged from full replay", id)
				}
			}

			b.Run("FullReplay", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.RunPlan(context.Background(), extSrc, plainCfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Resume", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					resumeCfg.CheckpointDir = cloneCheckpoints(b)
					b.StartTimer()
					res, err := core.RunPlan(context.Background(), extSrc, resumeCfg, nil)
					if err != nil {
						b.Fatal(err)
					}
					if res.ResumedFromDay != latest {
						b.Fatalf("ResumedFromDay = %d, want %d", res.ResumedFromDay, latest)
					}
				}
			})
		})
	}
}

// BenchmarkStorage is the tiered storage plane's headline (DESIGN.md
// §10), in three measurements over the same generated workload:
//
//   - container size: the flat encoding versus the compressed segmented
//     container (logged as a ratio; the acceptance bar is well under
//     half at the default preset's event density),
//   - replay: the metrics stage over the flat file versus the segmented
//     one — the decode-ahead goroutine's job is to keep the segmented
//     replay within a few percent of flat,
//   - checkpoints: a tiered run (1 full : 3 deltas) logging per-object
//     bytes and write latency from the CheckpointStat observer, deltas
//     versus fulls.
//
// Both replay arms are verified bit-identical before timing. Defaults to
// gen.DefaultConfig scale; -short swaps in the test-scale preset for the
// CI smoke. BENCH_storage.json tracks the datapoints.
func BenchmarkStorage(b *testing.B) {
	gcfg := gen.DefaultConfig()
	if testing.Short() {
		gcfg = gen.SmallConfig()
	}
	dir := b.TempDir()
	flatPath := filepath.Join(dir, "flat.trace")
	segPath := filepath.Join(dir, "seg.trace")
	if _, err := gen.GenerateToFile(gcfg, flatPath); err != nil {
		b.Fatal(err)
	}
	if _, err := gen.GenerateToSegFile(gcfg, segPath); err != nil {
		b.Fatal(err)
	}
	flatInfo, err := os.Stat(flatPath)
	if err != nil {
		b.Fatal(err)
	}
	segInfo, err := os.Stat(segPath)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("container bytes: flat %d, segmented %d (%.1f%% of flat)",
		flatInfo.Size(), segInfo.Size(), 100*float64(segInfo.Size())/float64(flatInfo.Size()))

	flatSrc, err := trace.OpenFileSource(flatPath)
	if err != nil {
		b.Fatal(err)
	}
	segSrc, err := trace.OpenTrace(segPath)
	if err != nil {
		b.Fatal(err)
	}

	// The metrics stage keeps the replay decode-bound enough that the
	// decompression overhead can't hide behind snapshot-day analysis.
	cfg := core.DefaultConfig()
	cfg.DeltaSweep = nil
	cfg.SkipEvolution = true
	cfg.SkipCommunity = true
	cfg.SkipMerge = true

	// Equivalence outside the timers: the segmented replay must serve
	// the same tables as the flat one.
	flatRes, err := core.RunPlan(context.Background(), flatSrc, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	segRes, err := core.RunPlan(context.Background(), segSrc, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range []string{"fig1a", "fig1c", "fig1f"} {
		ft, ferr := flatRes.Figure(id)
		st, serr := segRes.Figure(id)
		if ferr != nil || serr != nil {
			b.Fatalf("%s: %v / %v", id, ferr, serr)
		}
		if !reflect.DeepEqual(ft, st) {
			b.Fatalf("%s: segmented replay diverged from flat", id)
		}
	}

	for _, arm := range []struct {
		name string
		src  trace.MetaSource
	}{{"ReplayFlat", flatSrc}, {"ReplaySegmented", segSrc}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunPlan(context.Background(), arm.src, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The tiered checkpoint arm, at the incremental workflow's weekly
	// cadence so each delta spans 7 days of growth and sits next to
	// fulls of comparable graph age (a 90-day cadence would compare a
	// delta against a full written when the compounding graph was a
	// fraction of the size). Retention bounds the directory as the run
	// advances. Per-object sizes and write latencies come from the
	// observer, not the (whole-run) benchmark timer.
	b.Run("TieredCheckpoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ccfg := cfg
			ccfg.CheckpointDir = filepath.Join(b.TempDir(), "ck")
			ccfg.CheckpointEvery = 7
			ccfg.CheckpointFullEvery = 4
			ccfg.CheckpointKeep = 2
			var stats []core.CheckpointStat
			ccfg.CheckpointObserver = func(s core.CheckpointStat) { stats = append(stats, s) }
			if _, err := core.RunPlan(context.Background(), segSrc, ccfg, nil); err != nil {
				b.Fatal(err)
			}
			if i != 0 {
				continue
			}
			var fulls, deltas int64
			var fullBytes, deltaBytes int64
			var fullMS, deltaMS float64
			for _, s := range stats {
				if s.Delta {
					deltas++
					deltaBytes += s.Bytes
					deltaMS += float64(s.Elapsed.Nanoseconds()) / 1e6
				} else {
					fulls++
					fullBytes += s.Bytes
					fullMS += float64(s.Elapsed.Nanoseconds()) / 1e6
				}
			}
			if fulls == 0 || deltas == 0 {
				b.Fatalf("tiered cadence wrote %d fulls, %d deltas", fulls, deltas)
			}
			last := stats[len(stats)-1]
			b.Logf("checkpoints: %d fulls avg %d bytes %.1fms, %d deltas avg %d bytes %.1fms (delta/full = %.1f%%); last: day %d delta=%v %d bytes",
				fulls, fullBytes/fulls, fullMS/float64(fulls),
				deltas, deltaBytes/deltas, deltaMS/float64(deltas),
				100*float64(deltaBytes/deltas)/float64(fullBytes/fulls),
				last.Day, last.Delta, last.Bytes)
		}
	})
}

// Silence unused-import gymnastics for packages used only in some benches.
var _ = community.FeatureCount

// BenchmarkReplayAllocs is the allocation-lean data plane's headline
// (DESIGN.md §11): allocation counts for the two per-event hot paths —
// decode and state apply — over the default preset, plus the peak live
// heap of a full replay. The Decode arm is a hard gate, not just a
// datapoint: the benchmark fails if a decode pass allocates at all per
// event, so the CI bench smoke catches an allocation regression in the
// decoder the moment it lands. The Apply arm's gate is amortized —
// growth must come from capacity-doubling reservations (O(log n) per
// pass), never per-event appends. -short swaps in the test-scale preset
// for the CI smoke. BENCH_alloc.json tracks the datapoints.
func BenchmarkReplayAllocs(b *testing.B) {
	gcfg := gen.DefaultConfig()
	if testing.Short() {
		gcfg = gen.SmallConfig()
	}
	path := filepath.Join(b.TempDir(), "alloc.trace")
	meta, err := gen.GenerateToFile(gcfg, path)
	if err != nil {
		b.Fatal(err)
	}
	events := int(meta.Nodes + meta.Edges)
	b.Logf("trace: %d nodes, %d edges (%d events)", meta.Nodes, meta.Edges, events)

	b.Run("Decode", func(b *testing.B) {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		pass := func() {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
			br.Reset(f)
			d, err := trace.NewDecoder(br)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				_, ok, err := d.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			if n != events {
				b.Fatalf("decoded %d events, want %d", n, events)
			}
		}
		// The gate: a whole decode pass may allocate only its fixed setup
		// (decoder, meta) — zero per event. One extra allocation per event
		// would overshoot this by four orders of magnitude.
		allocs := testing.AllocsPerRun(1, pass)
		if allocs > 64 {
			b.Fatalf("decode pass allocated %.0f times for %d events (%.4f/event): decode must be zero-alloc per event",
				allocs, events, allocs/float64(events))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.ReportMetric(allocs/float64(events), "allocs/event")
	})

	b.Run("Apply", func(b *testing.B) {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := trace.Decode(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		pass := func() *trace.State {
			st := trace.NewState(0, 0)
			for _, ev := range tr.Events {
				if err := st.Apply(ev); err != nil {
					b.Fatal(err)
				}
			}
			return st
		}
		allocs := testing.AllocsPerRun(1, func() { pass() })
		if allocs > 2048 {
			b.Fatalf("apply pass allocated %.0f times for %d events (%.4f/event): growth must be amortized doubling, not per-event",
				allocs, events, allocs/float64(events))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stop := samplePeakHeap()
			st := pass()
			peak := stop()
			b.ReportMetric(peak, "peak-live-MB")
			b.ReportMetric(float64(st.Graph.NumEdges()), "edges")
		}
		b.ReportMetric(allocs/float64(events), "allocs/event")
	})
}

// BenchmarkParallelReplay measures the parallel shared pass end to end:
// the full plan (every stage plus a 2-δ sweep) over a disk-backed trace
// at 1/2/4/8 workers, reporting sec/op and peak live heap per worker
// count. Full-scale runs use the large preset with thinned measurement
// cadences — the same device as BenchmarkDeltaSweep: the per-day replay
// and stage work being parallelized is identical at any cadence, and
// thinning the snapshot schedule keeps one measured iteration in
// minutes. -short drops to the test preset for the CI smoke.
//
// Speedup is bounded by the host's core count (the workers beyond
// GOMAXPROCS only add hand-off overhead); BENCH_parallel.json records
// the measurement host's core count next to the datapoints.
func BenchmarkParallelReplay(b *testing.B) {
	gcfg := gen.LargeConfig()
	if testing.Short() {
		gcfg = gen.SmallConfig()
	}
	path := filepath.Join(b.TempDir(), "parallel.trace")
	meta, err := gen.GenerateToFile(gcfg, path)
	if err != nil {
		b.Fatal(err)
	}
	src, err := trace.OpenFileSource(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d nodes, %d edges, %d days; GOMAXPROCS=%d",
		meta.Nodes, meta.Edges, meta.Days, runtime.GOMAXPROCS(0))

	cfg := core.DefaultConfig()
	cfg.DeltaSweep = []float64{0.01, 0.1}
	if !testing.Short() {
		cfg.MetricsEvery = 30
		cfg.PathEvery = 90
		cfg.Community.SnapshotEvery = 300
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			for i := 0; i < b.N; i++ {
				stop := samplePeakHeap()
				res, err := core.RunPlan(ctx, src, c, nil)
				peak := stop()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.DeltaSweep) != len(c.DeltaSweep) {
					b.Fatalf("sweep runs = %d", len(res.DeltaSweep))
				}
				b.ReportMetric(peak, "peak-live-MB")
			}
		})
	}
}
