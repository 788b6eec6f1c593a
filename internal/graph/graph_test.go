package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestAddNodeAndEnsure(t *testing.T) {
	g := New(4)
	if id := g.AddNode(); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	if id := g.AddNode(); id != 1 {
		t.Fatalf("second id = %d", id)
	}
	g.EnsureNode(5)
	if g.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", g.NumNodes())
	}
	g.EnsureNode(2) // no-op
	if g.NumNodes() != 6 {
		t.Fatalf("EnsureNode shrank or grew wrongly: %d", g.NumNodes())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(0)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("n=%d e=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge must be symmetric")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(0)
	if err := g.AddEdge(3, 3); err != ErrSelfLoop {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New(0)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != ErrDuplicateEdge {
		t.Fatalf("err = %v, want ErrDuplicateEdge", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestAddEdgeRejectsNegative(t *testing.T) {
	g := New(0)
	if err := g.AddEdge(-1, 2); err == nil {
		t.Fatal("want error for negative id")
	}
}

func TestDegreeOutOfRange(t *testing.T) {
	g := New(0)
	if g.Degree(-1) != 0 || g.Degree(10) != 0 {
		t.Fatal("out-of-range degree must be 0")
	}
	if g.AppendNeighbors(nil, -1) != nil || g.AppendNeighbors(nil, 7) != nil {
		t.Fatal("out-of-range neighbors must be nil")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge must be false")
	}
}

func TestForEachEdge(t *testing.T) {
	g := New(0)
	edges := [][2]NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 1}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[[2]NodeID]bool{}
	g.ForEachEdge(func(u, v NodeID) {
		if u >= v {
			t.Fatalf("ForEachEdge must emit u<v, got %d,%d", u, v)
		}
		seen[[2]NodeID{u, v}] = true
	})
	if len(seen) != len(edges) {
		t.Fatalf("saw %d edges, want %d", len(seen), len(edges))
	}
}

// TestDegreeSumInvariant checks Σ deg = 2E under random insertions.
func TestDegreeSumInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		g := New(0)
		n := 2 + rng.Intn(40)
		for i := 0; i < 200; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			_ = g.AddEdge(u, v) // self loops / dups rejected internally
		}
		var degSum int64
		for i := 0; i < g.NumNodes(); i++ {
			degSum += int64(g.Degree(NodeID(i)))
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHasEdgeMatchesNeighborScan cross-checks HasEdge against a map oracle.
func TestHasEdgeMatchesOracle(t *testing.T) {
	rng := stats.NewRand(77)
	g := New(0)
	oracle := map[[2]NodeID]bool{}
	const n = 30
	for i := 0; i < 300; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		err := g.AddEdge(u, v)
		if u != v && err == nil {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			oracle[[2]NodeID{a, b}] = true
		}
	}
	for u := NodeID(0); u < n; u++ {
		for v := NodeID(0); v < n; v++ {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if g.HasEdge(u, v) != oracle[[2]NodeID{a, b}] {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
}
