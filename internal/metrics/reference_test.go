package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stats"
)

// This file keeps the per-source path-length sweep this package used before
// the bit-parallel lane kernel — one BFS per sampled source, each
// source's distances summed as integer-valued floats — as the reference
// the PathSampler must reproduce bit for bit.

// refSampledPathLength is the reference estimator.
func refSampledPathLength(g *graph.Graph, k int, rng *rand.Rand) (float64, error) {
	comp := g.LargestComponent()
	if len(comp) < 2 {
		return 0, ErrNoSample
	}
	var sources []graph.NodeID
	if k >= len(comp) {
		sources = comp
	} else {
		for _, i := range stats.SampleWithoutReplacement(len(comp), k, rng) {
			sources = append(sources, comp[i])
		}
	}
	var total float64
	var count int64
	for _, s := range sources {
		for v, d := range g.BFS(s) {
			if d > 0 && graph.NodeID(v) != s {
				total += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0, ErrNoSample
	}
	return total / float64(count), nil
}

// multiComponentGraph is a random graph whose largest component is a
// random tree with chords over the first n nodes, beside a second
// component and isolated nodes the estimator must ignore.
func multiComponentGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i))
	}
	for i := 0; i < n/4; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	for i := 1; i < n/5; i++ {
		g.AddEdge(graph.NodeID(n+rng.Intn(i)), graph.NodeID(n+i))
	}
	g.EnsureNode(graph.NodeID(n + n/5 + 10))
	return g
}

// TestPathSamplerMatchesReference holds the lane-batched sampler to the
// per-source reference at every worker width: the same estimate bits, the
// same error, and the same rng position afterwards. One sampler per width
// is reused across the cases and across a growing graph, so stale scratch
// from a smaller graph or a larger k would show up too.
func TestPathSamplerMatchesReference(t *testing.T) {
	samplers := map[int]*PathSampler{}
	for _, workers := range []int{1, 2, 3, 8} {
		samplers[workers] = &PathSampler{Pool: engine.NewPool(workers)}
	}
	ks := []int{0, 1, 5, 63, 64, 65, 100, 129, 640, 1 << 20 /* > component: all sources */}
	for _, n := range []int{2, 40, 500, 1500} {
		g := multiComponentGraph(n, int64(n))
		for _, k := range ks {
			for _, workers := range []int{1, 2, 3, 8} {
				seed := int64(n*1000 + k)
				rngRef := rand.New(rand.NewSource(seed))
				want, wantErr := refSampledPathLength(g, k, rngRef)
				rng := rand.New(rand.NewSource(seed))
				got, err := samplers[workers].Sample(g, k, rng)
				if err != wantErr {
					t.Fatalf("n=%d k=%d workers=%d: err %v, want %v", n, k, workers, err, wantErr)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d k=%d workers=%d: estimate %v, want %v", n, k, workers, got, want)
				}
				if rng.Int63() != rngRef.Int63() {
					t.Fatalf("n=%d k=%d workers=%d: rng positions diverged", n, k, workers)
				}
			}
		}
	}
}

// TestPathSamplerAllocs: the fan-out's scratch is per worker, not per lane
// batch. After a warm-up sample at each size, sampling 640 sources (ten
// batches) at two workers allocates no more than 128 sources (two
// batches); and 128 allocates no more than 64 (one batch, run on the
// calling goroutine) beyond the one helper goroutine it starts.
func TestPathSamplerAllocs(t *testing.T) {
	g := pathTestGraph(4000, 6000, 5)
	p := PathSampler{Pool: engine.NewPool(2)}
	allocs := func(k int) float64 {
		rng := rand.New(rand.NewSource(1))
		if _, err := p.Sample(g, k, rng); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { p.Sample(g, k, rng) })
	}
	a64, a128, a640 := allocs(64), allocs(128), allocs(640)
	if a640 > a128 {
		t.Errorf("allocs at k=640: %v, more than %v at k=128", a640, a128)
	}
	if a128 > a64+1 {
		t.Errorf("allocs at k=128: %v, more than %v at k=64 plus one goroutine", a128, a64)
	}
}
