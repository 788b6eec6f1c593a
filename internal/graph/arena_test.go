package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// refGraph is the retired [][]NodeID adjacency representation, kept as a
// test oracle: the arena-backed Graph must be operation-for-operation
// equivalent to it — neighbor order included, since adjacency order is
// semantic for checkpoints and bit-identical replay equivalence.
type refGraph struct {
	adj  [][]NodeID
	arcs int64
}

func (r *refGraph) ensure(id NodeID) {
	for NodeID(len(r.adj)) <= id {
		r.adj = append(r.adj, nil)
	}
}

func (r *refGraph) addNode() NodeID {
	r.adj = append(r.adj, nil)
	return NodeID(len(r.adj) - 1)
}

func (r *refGraph) hasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || int(u) >= len(r.adj) || int(v) >= len(r.adj) {
		return false
	}
	for _, w := range r.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (r *refGraph) addEdge(u, v NodeID) bool {
	if u == v || u < 0 || v < 0 {
		return false
	}
	hi := u
	if v > hi {
		hi = v
	}
	r.ensure(hi)
	if r.hasEdge(u, v) {
		return false
	}
	r.adj[u] = append(r.adj[u], v)
	r.adj[v] = append(r.adj[v], u)
	r.arcs += 2
	return true
}

// TestArenaMatchesReference drives the arena graph and the reference
// representation through the same randomized AddNode/AddEdge/EnsureNode
// sequence and checks full observable equivalence after every burst:
// node/edge counts, per-node degree, neighbor lists in order (via
// AppendNeighbors, ForEachNeighbor, NeighborAt, and the chunk iterator),
// HasEdge on random pairs, and the Frozen CSR.
func TestArenaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(0)
		ref := &refGraph{}
		maxID := int32(1 + rng.Intn(200))
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				a, b := g.AddNode(), ref.addNode()
				if a != b {
					t.Fatalf("seed %d step %d: AddNode id %d vs %d", seed, step, a, b)
				}
			case op == 1:
				id := NodeID(rng.Intn(int(maxID)))
				g.EnsureNode(id)
				ref.ensure(id)
			default:
				u, v := NodeID(rng.Intn(int(maxID))), NodeID(rng.Intn(int(maxID)))
				err := g.AddEdge(u, v)
				ok := ref.addEdge(u, v)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: AddEdge(%d,%d) err=%v ref-ok=%v", seed, step, u, v, err, ok)
				}
			}
			if step%500 == 0 {
				checkEquivalent(t, g, ref, rng)
			}
		}
		checkEquivalent(t, g, ref, rng)
	}
}

func checkEquivalent(t *testing.T, g *Graph, ref *refGraph, rng *rand.Rand) {
	t.Helper()
	if g.NumNodes() != len(ref.adj) {
		t.Fatalf("nodes %d vs %d", g.NumNodes(), len(ref.adj))
	}
	if g.NumEdges() != ref.arcs/2 || g.Arcs() != ref.arcs {
		t.Fatalf("edges %d/%d vs %d", g.NumEdges(), g.Arcs(), ref.arcs)
	}
	f := g.Freeze()
	var scratch []NodeID
	for u := 0; u < len(ref.adj); u++ {
		want := ref.adj[u]
		if g.Degree(NodeID(u)) != len(want) {
			t.Fatalf("node %d: degree %d vs %d", u, g.Degree(NodeID(u)), len(want))
		}
		scratch = g.AppendNeighbors(scratch[:0], NodeID(u))
		if len(scratch) != len(want) {
			t.Fatalf("node %d: AppendNeighbors len %d vs %d", u, len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("node %d: neighbor %d is %d, want %d (order must be preserved)", u, i, scratch[i], want[i])
			}
			if got := g.NeighborAt(NodeID(u), i); got != want[i] {
				t.Fatalf("node %d: NeighborAt(%d) = %d, want %d", u, i, got, want[i])
			}
		}
		i := 0
		g.ForEachNeighbor(NodeID(u), func(v NodeID) {
			if v != want[i] {
				t.Fatalf("node %d: ForEachNeighbor[%d] = %d, want %d", u, i, v, want[i])
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("node %d: ForEachNeighbor yielded %d of %d", u, i, len(want))
		}
		pos := 0
		for it := g.Chunks(NodeID(u)); ; {
			s := it.Next()
			if s == nil {
				break
			}
			if !reflect.DeepEqual(s, want[pos:pos+len(s)]) {
				t.Fatalf("node %d: chunk at %d = %v, want %v", u, pos, s, want[pos:pos+len(s)])
			}
			pos += len(s)
		}
		if pos != len(want) {
			t.Fatalf("node %d: chunks yielded %d of %d", u, pos, len(want))
		}
		if fn := f.Neighbors(NodeID(u)); !reflect.DeepEqual(append([]NodeID{}, fn...), append([]NodeID{}, want...)) {
			t.Fatalf("node %d: frozen neighbors %v, want %v", u, fn, want)
		}
	}
	for i := 0; i < 50; i++ {
		u := NodeID(rng.Intn(len(ref.adj) + 1))
		v := NodeID(rng.Intn(len(ref.adj) + 1))
		if g.HasEdge(u, v) != ref.hasEdge(u, v) {
			t.Fatalf("HasEdge(%d,%d) = %v, ref %v", u, v, g.HasEdge(u, v), ref.hasEdge(u, v))
		}
	}
}

// TestAppendArc covers the deserialization path: arcs appended from both
// endpoints reconstruct the same graph AddEdge built, order included.
func TestAppendArc(t *testing.T) {
	g := New(0)
	edges := [][2]NodeID{{0, 5}, {5, 2}, {2, 0}, {3, 5}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r := New(0)
	var ns []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		ns = g.AppendNeighbors(ns[:0], NodeID(u))
		for _, v := range ns {
			r.AppendArc(NodeID(u), v)
		}
	}
	r.EnsureNode(NodeID(g.NumNodes() - 1))
	if r.NumNodes() != g.NumNodes() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuilt %d/%d, want %d/%d", r.NumNodes(), r.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		a := g.AppendNeighbors(nil, NodeID(u))
		b := r.AppendNeighbors(nil, NodeID(u))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d: %v vs %v", u, a, b)
		}
	}
}
