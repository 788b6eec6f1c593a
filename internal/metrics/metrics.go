// Package metrics computes the first-order graph metrics the paper tracks
// over daily snapshots in §2 (Fig 1): average degree, average clustering
// coefficient, degree assortativity, and sampled average path length.
//
// The path-length and clustering computations support node sampling, which
// is the paper's own tractability device ("we follow the standard practice
// of sampling nodes to make path length computation tractable").
package metrics

import (
	"errors"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stats"
)

// AverageDegree returns 2E/N, the mean node degree, or 0 for an empty graph.
func AverageDegree(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// LocalClustering returns the clustering coefficient of node u: the fraction
// of pairs of u's neighbors that are themselves connected. Nodes with degree
// < 2 have coefficient 0, matching the convention the paper inherits.
func LocalClustering(g *graph.Graph, u graph.NodeID) float64 {
	d := g.Degree(u)
	if d < 2 {
		return 0
	}
	ns := g.AppendNeighbors(make([]graph.NodeID, 0, d), u)
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(ns[i], ns[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClustering returns the mean local clustering coefficient over all
// nodes (exact computation).
func AverageClustering(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var sum float64
	for u := 0; u < n; u++ {
		sum += LocalClustering(g, graph.NodeID(u))
	}
	return sum / float64(n)
}

// SampledClustering estimates the average clustering coefficient from a
// uniform sample of k nodes. With k >= NumNodes it is exact.
func SampledClustering(g *graph.Graph, k int, rng *rand.Rand) float64 {
	var c ClusteringSampler
	return c.Sample(g, k, rng)
}

// ClusteringSampler is SampledClustering with a reusable neighbor-marks
// scratch array. Marking u's neighborhood turns each local coefficient into
// one scan over the neighbors' adjacency lists instead of a quadratic
// HasEdge pair-scan — the dominant cost of the Fig 1 snapshot series — while
// counting exactly the same linked pairs.
type ClusteringSampler struct {
	marks []bool
	ns    []graph.NodeID // scratch: u's materialized neighbor list
}

func (c *ClusteringSampler) local(g *graph.Graph, u graph.NodeID) float64 {
	d := g.Degree(u)
	if d < 2 {
		return 0
	}
	c.ns = g.AppendNeighbors(c.ns[:0], u)
	ns := c.ns
	if n := g.NumNodes(); cap(c.marks) < n {
		c.marks = make([]bool, n)
	} else {
		c.marks = c.marks[:n]
	}
	for _, v := range ns {
		c.marks[v] = true
	}
	// Every linked neighbor pair {v, w} is seen twice, once from each side.
	links := 0
	for _, v := range ns {
		for it := g.Chunks(v); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, w := range s {
				if c.marks[w] {
					links++
				}
			}
		}
	}
	for _, v := range ns {
		c.marks[v] = false
	}
	links /= 2
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// Sample estimates the average clustering coefficient exactly as
// SampledClustering does.
func (c *ClusteringSampler) Sample(g *graph.Graph, k int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if k >= n {
		var sum float64
		for u := 0; u < n; u++ {
			sum += c.local(g, graph.NodeID(u))
		}
		return sum / float64(n)
	}
	ids := stats.SampleWithoutReplacement(n, k, rng)
	var sum float64
	for _, u := range ids {
		sum += c.local(g, graph.NodeID(u))
	}
	return sum / float64(len(ids))
}

// Assortativity returns the degree assortativity coefficient: the Pearson
// correlation of the degrees at either end of every edge (both orientations
// counted, the standard Newman formulation). It returns 0 for graphs with
// no edges or uniform degrees. The computation streams over edges without
// materializing the degree pairs, so it is allocation-free even on
// million-edge snapshots.
func Assortativity(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	// With both orientations counted, Σx = Σy and Σx² = Σy², so only one
	// side's moments are needed.
	var n, sx, sxx, sxy float64
	g.ForEachEdge(func(u, v graph.NodeID) {
		du, dv := float64(g.Degree(u)), float64(g.Degree(v))
		n += 2
		sx += du + dv
		sxx += du*du + dv*dv
		sxy += 2 * du * dv
	})
	varX := sxx - sx*sx/n
	if varX <= 0 {
		return 0
	}
	cov := sxy - sx*sx/n
	return cov / varX
}

// ErrNoSample is returned when a sampled estimate has nothing to average.
var ErrNoSample = errors.New("metrics: no valid samples")

// SampledPathLength estimates the average shortest-path length by running
// BFS from k sources sampled uniformly from the graph's largest connected
// component and averaging distances to every reachable node, the procedure
// the paper uses with k=1000 on each snapshot (Fig 1d).
func SampledPathLength(g *graph.Graph, k int, rng *rand.Rand) (float64, error) {
	var ps PathSampler
	return ps.Sample(g, k, rng)
}

// PathSampler is SampledPathLength with reusable scratch, for callers (the
// streaming metrics stage) that measure many snapshots.
//
// The sources run in batches of graph.Lanes through the bit-parallel
// multi-source BFS (graph.DistanceSums), which walks the component once
// per batch instead of once per source. The batches fan out on Pool (nil
// runs them sequentially), each worker with private scratch. The
// estimate is bit-identical at any budget: sources are drawn before the
// fan-out (the rng draw sequence is unchanged), and every batch's
// distance total and pair count are exact int64 sums, divided once at the
// end.
type PathSampler struct {
	// Pool is the CPU budget the lane batches borrow from.
	Pool *engine.Pool

	workers []laneWorker
}

// laneWorker is one worker's private BFS scratch and its partial sums.
type laneWorker struct {
	bfs          graph.LaneScratch
	total, pairs int64
}

// Sample estimates the average shortest-path length exactly as
// SampledPathLength does.
func (p *PathSampler) Sample(g *graph.Graph, k int, rng *rand.Rand) (float64, error) {
	comp := g.LargestComponent()
	if len(comp) < 2 {
		return 0, ErrNoSample
	}
	sources := comp
	if k < len(comp) {
		idx := stats.SampleWithoutReplacement(len(comp), k, rng)
		sources = make([]graph.NodeID, len(idx))
		for j, i := range idx {
			sources[j] = comp[i]
		}
	}
	if len(sources) == 0 {
		return 0, ErrNoSample
	}
	batches := (len(sources) + graph.Lanes - 1) / graph.Lanes
	workers := min(p.Pool.Workers(), batches)
	if len(p.workers) < workers {
		p.workers = append(p.workers, make([]laneWorker, workers-len(p.workers))...)
	}
	for w := range p.workers[:workers] {
		p.workers[w].total, p.workers[w].pairs = 0, 0
	}
	p.Pool.Fan(batches, func(w, b int) {
		lw := &p.workers[w]
		lo := b * graph.Lanes
		t, c := g.DistanceSums(sources[lo:min(lo+graph.Lanes, len(sources))], comp, &lw.bfs)
		lw.total += t
		lw.pairs += c
	})
	var total, pairs int64
	for _, lw := range p.workers[:workers] {
		total += lw.total
		pairs += lw.pairs
	}
	if pairs == 0 {
		return 0, ErrNoSample
	}
	return float64(total) / float64(pairs), nil
}

// DegreeHistogram returns counts of nodes by degree.
func DegreeHistogram(g *graph.Graph) *stats.IntCounts {
	var c stats.IntCounts
	for u := 0; u < g.NumNodes(); u++ {
		c.Add(g.Degree(graph.NodeID(u)))
	}
	return &c
}

// Snapshot bundles the Fig 1 metrics measured on one daily snapshot.
type Snapshot struct {
	Day        int32
	Nodes      int64
	Edges      int64
	AvgDegree  float64
	PathLength float64 // NaN-free: 0 when not measured that day
	Clustering float64
	Assort     float64
}
