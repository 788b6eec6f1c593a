package graph

import (
	"testing"

	"repro/internal/stats"
)

// path builds 0-1-2-...-n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	d := g.BFS(0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("dist[%d] = %d", i, d[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(0)
	g.AddEdge(0, 1)
	g.EnsureNode(3)
	d := g.BFS(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Fatalf("isolated nodes must be unreachable: %v", d)
	}
	if d[1] != 1 {
		t.Fatalf("dist[1] = %d", d[1])
	}
}

func TestBFSBadSource(t *testing.T) {
	g := path(3)
	d := g.BFS(-1)
	for _, x := range d {
		if x != Unreachable {
			t.Fatal("bad source must reach nothing")
		}
	}
	d = g.BFS(100)
	for _, x := range d {
		if x != Unreachable {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
}

func TestShortestToSet(t *testing.T) {
	g := path(6)
	target := func(v NodeID) bool { return v == 4 || v == 5 }
	if d := g.ShortestToSet(0, target, nil); d != 4 {
		t.Fatalf("dist = %d, want 4", d)
	}
	if d := g.ShortestToSet(4, target, nil); d != 0 {
		t.Fatalf("src in target set: dist = %d, want 0", d)
	}
	// Blocked by predicate.
	if d := g.ShortestToSet(0, target, func(v NodeID) bool { return v != 3 }); d != Unreachable {
		t.Fatalf("dist = %d, want unreachable when cut", d)
	}
	if d := g.ShortestToSet(-1, target, nil); d != Unreachable {
		t.Fatalf("bad src: %d", d)
	}
}

func TestShortestToSetMatchesBFS(t *testing.T) {
	rng := stats.NewRand(5)
	g := New(0)
	const n = 60
	for i := 0; i < 150; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	g.EnsureNode(n - 1)
	targets := map[NodeID]bool{7: true, 23: true, 41: true}
	target := func(v NodeID) bool { return targets[v] }
	for src := NodeID(0); src < n; src++ {
		want := int32(Unreachable)
		d := g.BFS(src)
		for v := range targets {
			if d[v] != Unreachable && (want == Unreachable || d[v] < want) {
				want = d[v]
			}
		}
		if got := g.ShortestToSet(src, target, nil); got != want {
			t.Fatalf("src %d: got %d want %d", src, got, want)
		}
	}
}

func TestBFSTriangleInequality(t *testing.T) {
	// Property: for edge (u,v), |dist(s,u) - dist(s,v)| <= 1 when both reachable.
	rng := stats.NewRand(9)
	g := New(0)
	const n = 80
	for i := 0; i < 200; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	d := g.BFS(0)
	bad := false
	g.ForEachEdge(func(u, v NodeID) {
		if d[u] != Unreachable && d[v] != Unreachable {
			diff := d[u] - d[v]
			if diff < -1 || diff > 1 {
				bad = true
			}
		}
	})
	if bad {
		t.Fatal("BFS distances violate edge Lipschitz property")
	}
}

// componentsOf lists g's connected components, each in ascending node order.
func componentsOf(g *Graph) [][]NodeID {
	uf := NewUnionFind(g.NumNodes())
	g.ForEachEdge(func(u, v NodeID) { uf.Union(u, v) })
	byRoot := map[int32][]NodeID{}
	var roots []int32
	for v := 0; v < g.NumNodes(); v++ {
		r := uf.Find(int32(v))
		if byRoot[r] == nil {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], NodeID(v))
	}
	out := make([][]NodeID, len(roots))
	for i, r := range roots {
		out[i] = byRoot[r]
	}
	return out
}

// TestDistanceSumsMatchesBFS holds the bit-parallel kernel to a per-source
// BFS loop on random graphs with several components and isolated
// nodes: for source counts on both sides of the lane width (run in batches
// of at most Lanes, with one scratch reused throughout), and for every
// node of a component as a source, the distance total and the pair count
// must be equal.
func TestDistanceSumsMatchesBFS(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := stats.NewRand(seed)
		g := New(0)
		// Three components of 300, 150 and 40 nodes (random trees plus
		// chords, so distances vary), then 20 isolated nodes.
		base := 0
		for _, size := range []int{300, 150, 40} {
			for i := 1; i < size; i++ {
				g.AddEdge(NodeID(base+rng.Intn(i)), NodeID(base+i))
			}
			for i := 0; i < size/3; i++ {
				g.AddEdge(NodeID(base+rng.Intn(size)), NodeID(base+rng.Intn(size)))
			}
			base += size
		}
		g.EnsureNode(NodeID(base + 19))

		var sc LaneScratch
		for _, comp := range componentsOf(g) {
			for _, k := range []int{1, 63, 64, 65, 100, 129, len(comp)} {
				if k > len(comp) {
					continue
				}
				sources := make([]NodeID, k)
				for i, j := range rng.Perm(len(comp))[:k] {
					sources[i] = comp[j]
				}
				var wantTotal, wantPairs int64
				for _, s := range sources {
					for _, d := range g.BFS(s) {
						if d > 0 {
							wantTotal += int64(d)
							wantPairs++
						}
					}
				}
				var total, pairs int64
				for lo := 0; lo < k; lo += Lanes {
					bt, bp := g.DistanceSums(sources[lo:min(lo+Lanes, k)], comp, &sc)
					total += bt
					pairs += bp
				}
				if total != wantTotal || pairs != wantPairs {
					t.Fatalf("seed %d, component of %d, k=%d: total %d pairs %d, want %d %d",
						seed, len(comp), k, total, pairs, wantTotal, wantPairs)
				}
			}
		}
	}
}

func TestDistanceSumsTooManySources(t *testing.T) {
	g := path(Lanes + 1)
	comp := g.LargestComponent()
	defer func() {
		if recover() == nil {
			t.Fatal("more than Lanes sources must panic")
		}
	}()
	g.DistanceSums(comp, comp, &LaneScratch{})
}

// TestLaneScratchGrowsGeometrically: on a graph that gains a node between
// traversals, as the live graph does between path-length days, the
// scratch columns are reallocated O(log n) times, not on every call.
func TestLaneScratchGrowsGeometrically(t *testing.T) {
	g := path(100)
	nodes := g.LargestComponent()
	sources := nodes[:Lanes]
	var sc LaneScratch
	g.DistanceSums(sources, nodes, &sc)
	allocs := testing.AllocsPerRun(200, func() {
		v := NodeID(g.NumNodes())
		g.AddEdge(v-1, v)
		nodes = append(nodes, v)
		g.DistanceSums(sources, nodes, &sc)
	})
	if allocs >= 1 {
		t.Fatalf("%v allocations per traversal on a growing graph", allocs)
	}
}
