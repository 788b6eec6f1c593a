package louvain

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
)

// This file keeps the map-based Louvain this package used before the move
// phase and the aggregation levels went to dense slices — per-label
// community totals and per-node link weights in hash maps, aggregation
// levels as neighbor -> weight maps, densify through a map — as the
// reference the dense kernel must reproduce bit for bit.

// refWGraph is the reference weighted graph: level 0 is the input CSR
// (unit weights, no self loops), aggregation levels are maps.
type refWGraph struct {
	n     int
	off   []int64
	tgt   []int32
	adj   []map[int32]float64
	self  []float64
	deg   []float64
	total float64
}

func (w *refWGraph) degree(u int32) float64 {
	if w.off != nil {
		return float64(w.off[u+1] - w.off[u])
	}
	return w.deg[u]
}

func (w *refWGraph) selfWeight(u int32) float64 {
	if w.off != nil {
		return 0
	}
	return w.self[u]
}

func (w *refWGraph) modularity(comm []int32) float64 {
	if w.total == 0 {
		return 0
	}
	nc := maxLabel(comm) + 1
	in := make([]float64, nc)
	tot := make([]float64, nc)
	for u := 0; u < w.n; u++ {
		c := comm[u]
		tot[c] += w.degree(int32(u))
		if w.off != nil {
			for i := w.off[u]; i < w.off[u+1]; i++ {
				if comm[w.tgt[i]] == c {
					in[c]++
				}
			}
			continue
		}
		in[c] += 2 * w.self[u]
		for v, wt := range w.adj[u] {
			if comm[v] == c {
				in[c] += wt
			}
		}
	}
	var q float64
	for c := int32(0); c < nc; c++ {
		q += in[c]/w.total - (tot[c]/w.total)*(tot[c]/w.total)
	}
	return q
}

// refRun is the reference RunPrepared over the level-0 graph of p.
func refRun(p *Prepared, opt Options) *Result {
	base := &refWGraph{n: p.w.n, off: p.w.off, tgt: p.w.tgt, total: p.w.total}
	if opt.Delta <= 0 {
		opt.Delta = 1e-6
	}
	maxLevels := opt.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 32
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	final := make([]int32, base.n)
	w := base
	var init []int32
	if opt.Init != nil {
		init = refDensify(opt.Init)
	}
	levels := 0
	prevQ := 0.0
	for level := 0; level < maxLevels; level++ {
		comm := refLocalMove(w, init, opt.Delta, rng)
		init = nil
		dense := refDensify(comm)
		q := w.modularity(dense)
		if level > 0 && q-prevQ < opt.Delta {
			break
		}
		levels++
		prevQ = q
		if level == 0 {
			copy(final, dense)
		} else {
			for u := range final {
				final[u] = dense[final[u]]
			}
		}
		nc := maxLabel(dense) + 1
		if int(nc) == w.n {
			break
		}
		w = w.aggregate(dense, int(nc))
	}
	res := &Result{Community: refDensify(final), Levels: levels}
	res.Modularity = base.modularity(res.Community)
	return res
}

func refLocalMove(w *refWGraph, init []int32, delta float64, rng *rand.Rand) []int32 {
	comm := make([]int32, w.n)
	if init == nil {
		for i := range comm {
			comm[i] = int32(i)
		}
	} else {
		next := maxLabel(init) + 1
		for i, c := range init {
			if c < 0 {
				comm[i] = next
				next++
			} else {
				comm[i] = c
			}
		}
	}
	tot := make(map[int32]float64, w.n)
	for u := 0; u < w.n; u++ {
		tot[comm[u]] += w.degree(int32(u))
	}
	order := rng.Perm(w.n)
	m2 := w.total
	if m2 == 0 {
		return comm
	}
	links := make(map[int32]float64, 64)
	var keysBuf []int32
	prevQ := w.modularity(comm)
	for sweep := 0; sweep < 128; sweep++ {
		moved := false
		for _, ui := range order {
			u := int32(ui)
			cu := comm[u]
			keys := keysBuf[:0]
			if w.off != nil {
				for i := w.off[u]; i < w.off[u+1]; i++ {
					c := comm[w.tgt[i]]
					if _, seen := links[c]; !seen {
						keys = append(keys, c)
					}
					links[c]++
				}
			} else {
				for v, wt := range w.adj[u] {
					c := comm[v]
					if _, seen := links[c]; !seen {
						keys = append(keys, c)
					}
					links[c] += wt
				}
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			du := w.degree(u)
			tot[cu] -= du
			best := cu
			bestGain := links[cu] - tot[cu]*du/m2
			for _, c := range keys {
				if c == cu {
					continue
				}
				gain := links[c] - tot[c]*du/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			for _, c := range keys {
				delete(links, c)
			}
			keysBuf = keys
			comm[u] = best
			tot[best] += du
			if best != cu {
				moved = true
			}
		}
		if !moved {
			break
		}
		q := w.modularity(comm)
		if q-prevQ < delta {
			break
		}
		prevQ = q
	}
	return comm
}

func (w *refWGraph) aggregate(comm []int32, nc int) *refWGraph {
	out := &refWGraph{
		n:    nc,
		adj:  make([]map[int32]float64, nc),
		self: make([]float64, nc),
		deg:  make([]float64, nc),
	}
	for u := 0; u < w.n; u++ {
		cu := comm[u]
		out.self[cu] += w.selfWeight(int32(u))
		if w.off != nil {
			for i := w.off[u]; i < w.off[u+1]; i++ {
				cv := comm[w.tgt[i]]
				if cv == cu {
					out.self[cu] += 0.5
					continue
				}
				if out.adj[cu] == nil {
					out.adj[cu] = make(map[int32]float64)
				}
				out.adj[cu][cv]++
			}
			continue
		}
		for v, wt := range w.adj[u] {
			cv := comm[v]
			if cv == cu {
				out.self[cu] += wt / 2
				continue
			}
			if out.adj[cu] == nil {
				out.adj[cu] = make(map[int32]float64)
			}
			out.adj[cu][cv] += wt
		}
	}
	for u := 0; u < nc; u++ {
		d := 2 * out.self[u]
		for _, wt := range out.adj[u] {
			d += wt
		}
		out.deg[u] = d
		out.total += d
	}
	return out
}

func refDensify(labels []int32) []int32 {
	remap := make(map[int32]int32, 64)
	out := make([]int32, len(labels))
	var next int32
	for i, l := range labels {
		d, ok := remap[l]
		if !ok {
			d = next
			remap[l] = d
			next++
		}
		out[i] = d
	}
	return out
}

// TestLocalMoveMatchesReference runs the dense kernel and the map-based
// reference, which sorts every node's candidates, side by side. The inputs
// are growing random graphs, for the paper's δ range, one level and
// unbounded levels, and both the live graph and a frozen snapshot; the
// community pipeline's seed chain over the small preset (TestSeedChainCarry's
// snapshots); and a graph with a node exactly tied between two
// communities. Every chain snapshot is seeded with that implementation's
// previous assignment and -1 for the nodes that joined since, and
// assignments, level counts and modularity bits must be identical at every
// snapshot.
func TestLocalMoveMatchesReference(t *testing.T) {
	for _, delta := range []float64{1e-6, 0.01, 0.04, 0.1} {
		for _, maxLevels := range []int{1, 0} {
			for _, frozen := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					checkChainMatchesReference(t, delta, maxLevels, frozen, seed)
				}
			}
		}
	}

	tr := seedChainTrace(t)
	for _, delta := range []float64{0.01, 0.1} {
		var got, want []int32
		eachSnapshot(t, tr, func(day int32, p *Prepared) {
			n := p.NumNodes()
			a, err := RunPrepared(p, Options{Delta: delta, MaxLevels: 1, Seed: 1, Init: seedFrom(got, n)})
			if err != nil {
				t.Fatal(err)
			}
			b := refRun(p, Options{Delta: delta, MaxLevels: 1, Seed: 1, Init: seedFrom(want, n)})
			if !sameRun(a, b) {
				t.Fatalf("seed chain δ=%v day %d: got (levels %d, Q %v), reference (levels %d, Q %v)", delta, day, a.Levels, a.Modularity, b.Levels, b.Modularity)
			}
			got, want = a.Community, b.Community
		})
	}

	// Two 4-cliques, labels 0 (nodes 0-3) and 1 (nodes 4-7), and node 8
	// in a community of its own with two arcs into each, listed into
	// clique 1 first. Joining either clique gains exactly the same, so the
	// ordered scan must take the lower label, 0.
	g := graph.New(9)
	for _, clique := range [][]graph.NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i, u := range clique {
			for _, v := range clique[i+1:] {
				g.AddEdge(u, v)
			}
		}
	}
	for _, v := range []graph.NodeID{4, 5, 0, 1} {
		g.AddEdge(8, v)
	}
	p := Prepare(g)
	for seed := int64(1); seed <= 4; seed++ {
		opt := Options{Delta: 0.01, MaxLevels: 1, Seed: seed, Init: []int32{0, 0, 0, 0, 1, 1, 1, 1, 2}}
		a, err := RunPrepared(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if b := refRun(p, opt); !sameRun(a, b) || a.Community[8] != a.Community[0] {
			t.Fatalf("tie, seed %d: node 8 joined %v, reference %v; want the lower label's clique %v", seed, a.Community[8], b.Community[8], a.Community[0])
		}
	}
}

func checkChainMatchesReference(t *testing.T, delta float64, maxLevels int, frozen bool, seed int64) {
	t.Helper()
	rng := stats.NewRand(seed)
	g := graph.New(64)
	var got, want []int32
	for snap := 0; snap < 6; snap++ {
		// Growth: new nodes attach mostly near existing ones, so
		// communities form and the seed chain carries them forward.
		n := g.NumNodes()
		for k := 0; k < 60+rng.Intn(60); k++ {
			u := graph.NodeID(n + k)
			g.EnsureNode(u)
			if n+k > 0 {
				g.AddEdge(u, graph.NodeID(rng.Intn(n+k)))
			}
		}
		for k := 0; k < 3*g.NumNodes()/2; k++ {
			u := rng.Intn(g.NumNodes())
			v := u + rng.Intn(40) - 20
			if v >= 0 && v < g.NumNodes() && v != u {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		var v graph.View = g
		if frozen {
			v = g.Freeze()
		}
		p := Prepare(v)
		a, err := RunPrepared(p, Options{Delta: delta, MaxLevels: maxLevels, Seed: seed, Init: seedFrom(got, v.NumNodes())})
		if err != nil {
			t.Fatal(err)
		}
		b := refRun(p, Options{Delta: delta, MaxLevels: maxLevels, Seed: seed, Init: seedFrom(want, v.NumNodes())})
		if !slices.Equal(a.Community, b.Community) || a.Levels != b.Levels ||
			math.Float64bits(a.Modularity) != math.Float64bits(b.Modularity) {
			t.Fatalf("δ=%v levels=%d frozen=%v seed=%d snapshot %d: got (levels %d, Q %v), reference (levels %d, Q %v), assignments equal: %v",
				delta, maxLevels, frozen, seed, snap, a.Levels, a.Modularity, b.Levels, b.Modularity, slices.Equal(a.Community, b.Community))
		}
		got, want = a.Community, b.Community
	}
}

// seedFrom extends a previous assignment to n nodes with -1 for the new
// ones, the way community.Detector seeds each snapshot; nil stays nil.
func seedFrom(prev []int32, n int) []int32 {
	if prev == nil {
		return nil
	}
	init := make([]int32, n)
	for i := range init {
		init[i] = -1
	}
	copy(init, prev)
	return init
}
