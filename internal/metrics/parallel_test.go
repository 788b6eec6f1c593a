package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// pathTestGraph builds a connected-ish random graph for the sampler.
func pathTestGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i)) // spanning tree: one component
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

// TestPathSamplerParallelBitIdentical holds the fanned-out sampled-BFS
// sweep to the sequential one: same seed, bit-identical estimate, and an
// identical rng position afterwards (source selection must consume
// exactly the same draws).
func TestPathSamplerParallelBitIdentical(t *testing.T) {
	g := pathTestGraph(4000, 6000, 11)
	sample := func(workers, k int) (float64, error, int64) {
		p := PathSampler{Pool: engine.NewPool(workers)}
		rng := rand.New(rand.NewSource(42))
		v, err := p.Sample(g, k, rng)
		return v, err, rng.Int63() // post-sample draw pins the rng position
	}
	for _, k := range []int{5, 100, 5000 /* > component: all sources */} {
		want, errSeq, drawSeq := sample(0, k)
		for _, workers := range []int{2, 3, 8} {
			got, errPar, drawPar := sample(workers, k)
			if (errSeq == nil) != (errPar == nil) {
				t.Fatalf("k=%d workers=%d: err=%v, want %v", k, workers, errPar, errSeq)
			}
			if got != want {
				t.Fatalf("k=%d workers=%d: estimate %v, want %v", k, workers, got, want)
			}
			if drawSeq != drawPar {
				t.Fatalf("k=%d workers=%d: rng positions diverged", k, workers)
			}
		}
	}
}

// TestPathSamplerScratchReuse: repeated parallel samples on a growing
// graph reuse per-worker scratch without corrupting results.
func TestPathSamplerScratchReuse(t *testing.T) {
	g := pathTestGraph(1000, 1500, 3)
	par := PathSampler{Pool: engine.NewPool(4)}
	seq := PathSampler{}
	for round := 0; round < 3; round++ {
		rngA := rand.New(rand.NewSource(int64(round)))
		rngB := rand.New(rand.NewSource(int64(round)))
		want, _ := seq.Sample(g, 64, rngA)
		got, _ := par.Sample(g, 64, rngB)
		if got != want {
			t.Fatalf("round %d: %v != %v", round, got, want)
		}
		// Grow the graph between rounds so BFS frontiers change size.
		base := g.NumNodes()
		for i := 0; i < 200; i++ {
			g.AddEdge(graph.NodeID(i%base), graph.NodeID(base+i))
		}
	}
}
