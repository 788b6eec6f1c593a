// Benchmarks for what no workload of the repository benchmark (bench/,
// bash bench/run.sh) isolates: the demand-driven planner's one-panel plan
// against the full pipeline, the per-δ detection layer and the Fig 1d
// path sampler on the small preset, and the replay data plane's
// allocation gates. Run e.g.:
//
//	go test -run '^$' -bench 'FigureOnly|DetectorAdvance' -benchmem
package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/gen"
	"repro/internal/louvain"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
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

// samplePeakHeap starts a background sampler of HeapAlloc and returns a
// stop function reporting the peak in MB seen during the measured region.
// It is an upper bound on the live set: uncollected garbage counts too.
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
		_, err := trace.ReplaySource(trace.SliceSource(tr.Events), trace.Hooks{
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
	st, err := trace.ReplaySource(trace.SliceSource(benchTrace(b).Events), trace.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := metrics.PathSampler{Pool: engine.NewPool(workers)}
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

// BenchmarkReplayAllocs is the allocation-lean data plane's headline
// (DESIGN.md §11): allocation counts for the two per-event hot paths —
// decode and state apply — over the default preset, plus the peak live
// heap of a full replay. The Decode arm is a hard gate, not just a
// datapoint: the benchmark fails if a decode pass allocates at all per
// event, so the CI bench smoke catches an allocation regression in the
// decoder the moment it lands. The Apply arm's gate is amortized —
// growth must come from capacity-doubling reservations (O(log n) per
// pass), never per-event appends. -short swaps in the test-scale preset
// for the CI smoke.
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

	src, err := trace.OpenTrace(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		pass := func() {
			cur, err := src.Open()
			if err != nil {
				b.Fatal(err)
			}
			defer cur.Close()
			n := 0
			for {
				_, ok, err := cur.Next()
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
		// The gate: a whole decode pass through the production cursor may
		// allocate only its fixed setup (handle, read buffer, decoder,
		// cursor) — zero per event. One extra allocation per event would
		// overshoot this by four orders of magnitude.
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
		cur, err := src.Open()
		if err != nil {
			b.Fatal(err)
		}
		evs := make([]trace.Event, 0, events)
		for {
			ev, ok, err := cur.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			evs = append(evs, ev)
		}
		cur.Close()
		pass := func() *trace.State {
			st := trace.NewState(0, 0)
			for _, ev := range evs {
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
