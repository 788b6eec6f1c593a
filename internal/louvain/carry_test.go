package louvain

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sameRun reports whether two results agree bit for bit on everything a
// caller can read.
func sameRun(a, b *Result) bool {
	return slices.Equal(a.Community, b.Community) && a.Levels == b.Levels &&
		math.Float64bits(a.Modularity) == math.Float64bits(b.Modularity)
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSeedChainCarry runs the community pipeline's seed chain over
// successive graph.Frozen snapshots of the small preset twice: once
// passing each run its predecessor (Options.Prev), so level 0 starts from
// the carried tallies, and once without. Every snapshot must give the
// same result on both chains, the carry must apply at every seeded
// snapshot, and the carried tallies must equal tally's full recount bit
// for bit.
func TestSeedChainCarry(t *testing.T) {
	tr := seedChainTrace(t)
	for _, delta := range []float64{0.01, 0.1} {
		var carried, dropped *Result
		snaps := eachSnapshot(t, tr, func(day int32, p *Prepared) {
			n := p.NumNodes()
			opt := Options{Delta: delta, MaxLevels: 1, Seed: 1}
			withCarry, without := opt, opt
			withCarry.Init, withCarry.Prev = seedFrom(communityOf(carried), n), carried
			without.Init = seedFrom(communityOf(dropped), n)
			if carried != nil {
				comm := densify(withCarry.Init)
				c := p.w.carried(comm, carried)
				if c == nil {
					t.Fatalf("δ=%v day %d: the carry does not apply to an appended snapshot", delta, day)
				}
				in, tot := make([]float64, n), make([]float64, n)
				cin, ctot := make([]float64, n), make([]float64, n)
				p.w.tally(comm, in, tot)
				p.w.tallyCarried(comm, cin, ctot, c)
				if !sameBits(in, cin) || !sameBits(tot, ctot) {
					t.Fatalf("δ=%v day %d: carried tallies differ from the recount", delta, day)
				}
			}
			a, err := RunPrepared(p, withCarry)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunPrepared(p, without)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRun(a, b) {
				t.Fatalf("δ=%v day %d: carried (levels %d, Q %v) and recounted (levels %d, Q %v) runs differ",
					delta, day, a.Levels, a.Modularity, b.Levels, b.Modularity)
			}
			carried, dropped = a, b
		})
		if snaps < 10 {
			t.Fatalf("δ=%v: only %d snapshots", delta, snaps)
		}
	}
}

// seedChainTrace is the small preset's first 160 days.
func seedChainTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := gen.SmallConfig()
	cfg.Days = 160
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eachSnapshot replays tr and hands fn the Louvain view of a frozen
// snapshot on every day of the community pipeline's schedule (from day
// 20, every third day, once the graph has 64 nodes). It returns how many
// snapshots there were.
func eachSnapshot(t *testing.T, tr *trace.Trace, fn func(day int32, p *Prepared)) int {
	t.Helper()
	snaps := 0
	onDayEnd := func(st *trace.State, day int32) {
		if day < 20 || day%3 != 2 || st.Graph.NumNodes() < 64 {
			return
		}
		fn(day, Prepare(st.Graph.Freeze()))
		snaps++
	}
	if _, err := trace.ReplaySource(tr.Source(), trace.Hooks{OnDayEnd: onDayEnd}); err != nil {
		t.Fatal(err)
	}
	return snaps
}

func communityOf(r *Result) []int32 {
	if r == nil {
		return nil
	}
	return r.Community
}

// TestCarryFallbacks covers every case where the carried tallies do not
// apply, so level 0 recounts every arc: a graph that is not an extension
// of the previous one (fewer nodes, or a node whose degree shrank), an
// Init that moves one of the previous nodes, a previous run that used
// more than one level, a previous result restored from its assignment
// alone, and a cold start. Each run must match the run without Prev.
func TestCarryFallbacks(t *testing.T) {
	base := randomGraph(400, 1600, stats.NewRand(7))
	prev, err := Run(base, Options{Delta: 0.01, MaxLevels: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prev.carry == nil {
		t.Fatal("a one-level run left no carry")
	}

	// Fewer nodes: the first 300 of base's nodes and the arcs among them.
	fewer := graph.New(300)
	fewer.EnsureNode(299)
	// Shrunk: base with node 0's first arc left out.
	shrunk := graph.New(400)
	shrunk.EnsureNode(399)
	skipped := false
	base.ForEachEdge(func(u, v graph.NodeID) {
		if u < 300 && v < 300 {
			fewer.AddEdge(u, v)
		}
		if !skipped && (u == 0 || v == 0) {
			skipped = true
			return
		}
		shrunk.AddEdge(u, v)
	})
	// Grown: base with 50 nodes and 400 edges appended.
	grown := randomGraph(400, 1600, stats.NewRand(7))
	rng := stats.NewRand(8)
	for u := 400; u < 450; u++ {
		grown.AddEdge(graph.NodeID(u), graph.NodeID(rng.Intn(u)))
	}
	for i := 0; i < 350; i++ {
		grown.AddEdge(graph.NodeID(rng.Intn(450)), graph.NodeID(rng.Intn(450)))
	}
	// Moved: node 0 seeded into another node's community.
	moved := seedFrom(prev.Community, 450)
	for v := range moved {
		if moved[v] != moved[0] {
			moved[0] = moved[v]
			break
		}
	}

	multi, err := Run(base, Options{Delta: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Levels < 2 || multi.carry != nil {
		t.Fatalf("multi-level run: %d levels, carry %v; want ≥ 2 levels and no carry", multi.Levels, multi.carry != nil)
	}

	cases := []struct {
		name string
		g    *graph.Graph
		init []int32
		prev *Result
	}{
		{"fewer nodes", fewer, slices.Clone(prev.Community[:300]), prev},
		{"degree shrank", shrunk, seedFrom(prev.Community, 400), prev},
		{"node moved", grown, moved, prev},
		{"previous multi-level", grown, seedFrom(multi.Community, 450), multi},
		{"restored", grown, seedFrom(prev.Community, 450), &Result{Community: prev.Community}},
		{"cold start", grown, nil, prev},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Prepare(tc.g.Freeze())
			if tc.init != nil {
				if c := p.w.carried(densify(tc.init), tc.prev); c != nil {
					t.Fatal("the carry applied")
				}
			}
			opt := Options{Delta: 0.01, MaxLevels: 1, Seed: 1, Init: tc.init}
			want, err := RunPrepared(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Prev = tc.prev
			got, err := RunPrepared(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRun(got, want) {
				t.Fatal("Prev changed the result")
			}
		})
	}

	// The grown graph with a consistent seed is the control: the carry
	// applies there.
	if p := Prepare(grown.Freeze()); p.w.carried(densify(seedFrom(prev.Community, 450)), prev) == nil {
		t.Fatal("the carry does not apply to an appended graph")
	}
}
