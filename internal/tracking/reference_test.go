package tracking

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/stats"
)

// This file keeps the map-based tracker this package used before
// grouping, matching, features and tie counts went to dense slices — label
// groups, node -> community lookups, overlap counts and tie counts in hash
// maps, histories in a map by id — as the reference the dense tracker
// must reproduce event for event and byte for byte.

type refCommunity struct {
	id    int64
	nodes []graph.NodeID
	set   map[graph.NodeID]struct{}
}

type refTracker struct {
	MinSize          int
	MergeContainment float64

	nextID  int64
	prev    []*refCommunity
	prevTie map[int64]map[int64]int64 // prev snapshot's inter-community edge counts
	selfSim map[int64]float64         // current snapshot's matched similarity per id
	events  []Event
	hist    map[int64]*History
	lastDay int32
}

func newRefTracker(minSize int) *refTracker {
	if minSize < 1 {
		minSize = 1
	}
	return &refTracker{MinSize: minSize, hist: make(map[int64]*History), lastDay: -1}
}

type refSnapshot struct {
	Day           int32
	Communities   map[int64][]graph.NodeID
	AvgSimilarity float64
	NodeCommunity map[graph.NodeID]int64
}

func (t *refTracker) Advance(day int32, g graph.View, assign Assignment) *refSnapshot {
	t.lastDay = day
	byLabel := map[int32][]graph.NodeID{}
	for u, c := range assign {
		if c >= 0 {
			byLabel[c] = append(byLabel[c], graph.NodeID(u))
		}
	}
	var cur []*refCommunity
	for _, nodes := range byLabel {
		if len(nodes) < t.MinSize {
			continue
		}
		set := make(map[graph.NodeID]struct{}, len(nodes))
		for _, u := range nodes {
			set[u] = struct{}{}
		}
		cur = append(cur, &refCommunity{nodes: nodes, set: set})
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].nodes[0] < cur[j].nodes[0] })

	simSum, simCount := t.match(day, cur)

	res := &refSnapshot{
		Day:           day,
		Communities:   make(map[int64][]graph.NodeID, len(cur)),
		NodeCommunity: make(map[graph.NodeID]int64),
	}
	if simCount > 0 {
		res.AvgSimilarity = simSum / float64(simCount)
	}
	nodeComm := make(map[graph.NodeID]int64, g.NumNodes()/2)
	for _, c := range cur {
		res.Communities[c.id] = c.nodes
		for _, u := range c.nodes {
			nodeComm[u] = c.id
			res.NodeCommunity[u] = c.id
		}
	}
	t.recordFeatures(day, g, cur, nodeComm)
	t.prevTie = refInterCommunityTies(g, nodeComm)
	t.prev = cur
	return res
}

func (t *refTracker) match(day int32, cur []*refCommunity) (simSum float64, simCount int) {
	t.selfSim = make(map[int64]float64, len(cur))
	if t.prev == nil {
		for _, c := range cur {
			c.id = t.newID(day)
		}
		return 0, 0
	}
	prevOf := map[graph.NodeID]int{}
	for i, p := range t.prev {
		for _, u := range p.nodes {
			prevOf[u] = i
		}
	}
	type pair struct{ i, j int }
	overlap := map[pair]int{}
	for j, c := range cur {
		for _, u := range c.nodes {
			if i, ok := prevOf[u]; ok {
				overlap[pair{i, j}]++
			}
		}
	}
	pairs := make([]pair, 0, len(overlap))
	for p := range overlap {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	sim := func(i, j int) float64 {
		inter := overlap[pair{i, j}]
		union := len(t.prev[i].nodes) + len(cur[j].nodes) - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	}
	containment := func(i, j int) float64 {
		return float64(overlap[pair{i, j}]) / float64(len(t.prev[i].nodes))
	}
	bestNewFor := make([]int, len(t.prev)) // prev i -> cur j (or -1)
	bestNewSim := make([]float64, len(t.prev))
	for i := range bestNewFor {
		bestNewFor[i] = -1
	}
	bestOldFor := make([]int, len(cur)) // cur j -> prev i (or -1)
	bestOldSim := make([]float64, len(cur))
	for j := range bestOldFor {
		bestOldFor[j] = -1
	}
	for _, p := range pairs {
		s := sim(p.i, p.j)
		if s > bestNewSim[p.i] {
			bestNewSim[p.i], bestNewFor[p.i] = s, p.j
		}
		if s > bestOldSim[p.j] {
			bestOldSim[p.j], bestOldFor[p.j] = s, p.i
		}
	}

	claimants := make([][]int, len(cur))
	for i, j := range bestNewFor {
		if j >= 0 {
			claimants[j] = append(claimants[j], i)
		}
	}
	survivedAs := make([]int, len(t.prev)) // prev i -> cur j whose id it carries, or -1
	for i := range survivedAs {
		survivedAs[i] = -1
	}
	for j, c := range cur {
		cl := claimants[j]
		if len(cl) == 0 {
			c.id = t.newID(day)
			t.events = append(t.events, Event{Day: day, Type: Birth, ID: c.id})
			continue
		}
		winner := cl[0]
		for _, i := range cl[1:] {
			if sim(i, j) > sim(winner, j) {
				winner = i
			}
		}
		c.id = t.prev[winner].id
		survivedAs[winner] = j
		t.selfSim[c.id] = sim(winner, j)
		simSum += sim(winner, j)
		simCount++
	}

	majority := make([][]int, len(cur))
	bestDest := make([]int, len(t.prev)) // prev i -> argmax_j overlap, or -1
	for i := range bestDest {
		bestDest[i] = -1
	}
	bestOv := make([]int, len(t.prev))
	for _, p := range pairs {
		if ov := overlap[p]; ov > bestOv[p.i] {
			bestOv[p.i], bestDest[p.i] = ov, p.j
		}
	}
	for i := range t.prev {
		if j := bestDest[i]; j >= 0 && containment(i, j) > t.mergeContainment() {
			majority[j] = append(majority[j], i)
		}
	}
	for i, p := range t.prev {
		if survivedAs[i] >= 0 {
			continue
		}
		j := bestDest[i]
		if j < 0 || containment(i, j) <= t.mergeContainment() {
			c := 0.0
			if j >= 0 {
				c = containment(i, j)
			}
			t.events = append(t.events, Event{Day: day, Type: Death, ID: p.id, Similarity: c})
			if h := t.hist[p.id]; h != nil {
				h.Death = day
			}
			continue
		}
		unionIDs := map[int64]bool{cur[j].id: true}
		sizeB := 0
		for _, k := range majority[j] {
			unionIDs[t.prev[k].id] = true
			if k != i && len(t.prev[k].nodes) > sizeB {
				sizeB = len(t.prev[k].nodes)
			}
		}
		if sizeB == 0 {
			sizeB = len(cur[j].nodes)
		}
		tieComm := t.strongestTieOf(p.id)
		t.events = append(t.events, Event{
			Day:              day,
			Type:             Merge,
			ID:               p.id,
			Other:            cur[j].id,
			Similarity:       sim(i, j),
			SizeA:            len(p.nodes),
			SizeB:            sizeB,
			StrongestTie:     tieComm != 0 && unionIDs[tieComm],
			StrongestTieWith: tieComm,
		})
		if h := t.hist[p.id]; h != nil {
			h.Death = day
			h.MergedInto = cur[j].id
		}
	}

	successors := make([][]int, len(t.prev))
	for j, i := range bestOldFor {
		if i >= 0 {
			successors[i] = append(successors[i], j)
		}
	}
	for i, succ := range successors {
		if len(succ) < 2 {
			continue
		}
		sort.Slice(succ, func(a, b int) bool {
			return len(cur[succ[a]].nodes) > len(cur[succ[b]].nodes)
		})
		t.events = append(t.events, Event{
			Day:        day,
			Type:       Split,
			ID:         t.prev[i].id,
			Similarity: bestNewSim[i],
			SizeA:      len(cur[succ[0]].nodes),
			SizeB:      len(cur[succ[1]].nodes),
		})
	}

	return simSum, simCount
}

func (t *refTracker) newID(day int32) int64 {
	t.nextID++
	id := t.nextID
	t.hist[id] = &History{ID: id, Birth: day, Death: -1}
	return id
}

func (t *refTracker) strongestTieOf(id int64) int64 {
	ties := t.prevTie[id]
	var bestComm int64
	var best int64 = -1
	for c, n := range ties {
		if n > best || (n == best && c < bestComm) {
			best, bestComm = n, c
		}
	}
	return bestComm
}

func (t *refTracker) recordFeatures(day int32, g graph.View, cur []*refCommunity, nodeComm map[graph.NodeID]int64) {
	for _, c := range cur {
		h := t.hist[c.id]
		if h == nil {
			h = &History{ID: c.id, Birth: day, Death: -1}
			t.hist[c.id] = h
		}
		h.Death = -1 // it exists now; resurrect if it was marked dead this day
		intra := int64(0)
		degSum := int64(0)
		for _, u := range c.nodes {
			degSum += int64(g.Degree(u))
			g.ForEachNeighbor(u, func(v graph.NodeID) {
				if nodeComm[v] == c.id {
					intra++
				}
			})
		}
		inRatio := 0.0
		if degSum > 0 {
			inRatio = float64(intra) / float64(degSum) // intra counted twice / degsum
		}
		h.Features = append(h.Features, Features{Day: day, Size: len(c.nodes), InRatio: inRatio, SelfSim: t.selfSim[c.id]})
	}
}

func refInterCommunityTies(g graph.View, nodeComm map[graph.NodeID]int64) map[int64]map[int64]int64 {
	out := map[int64]map[int64]int64{}
	g.ForEachEdge(func(u, v graph.NodeID) {
		cu, okU := nodeComm[u]
		cv, okV := nodeComm[v]
		if !okU || !okV || cu == cv {
			return
		}
		add := func(a, b int64) {
			m := out[a]
			if m == nil {
				m = map[int64]int64{}
				out[a] = m
			}
			m[b]++
		}
		add(cu, cv)
		add(cv, cu)
	})
	return out
}

func (t *refTracker) Events() []Event { return t.events }

func (t *refTracker) Histories() map[int64]*History { return t.hist }

func (t *refTracker) LastDay() int32 { return t.lastDay }

func (t *refTracker) mergeContainment() float64 { return t.MergeContainment }

func (t *refTracker) SaveState(e *checkpoint.Encoder) {
	e.I64(t.nextID)
	e.I32(t.lastDay)
	e.Bool(t.prev != nil)
	e.U64(uint64(len(t.prev)))
	for _, c := range t.prev {
		e.I64(c.id)
		e.U64(uint64(len(c.nodes)))
		for _, u := range c.nodes {
			e.I32(u)
		}
	}
	e.U64(uint64(len(t.prevTie)))
	for _, id := range checkpoint.SortedKeys(t.prevTie) {
		e.I64(id)
		ties := t.prevTie[id]
		e.U64(uint64(len(ties)))
		for _, other := range checkpoint.SortedKeys(ties) {
			e.I64(other)
			e.I64(ties[other])
		}
	}
	e.U64(uint64(len(t.events)))
	for _, ev := range t.events {
		e.I32(ev.Day)
		e.U64(uint64(ev.Type))
		e.I64(ev.ID)
		e.I64(ev.Other)
		e.F64(ev.Similarity)
		e.Int(ev.SizeA)
		e.Int(ev.SizeB)
		e.Bool(ev.StrongestTie)
		e.I64(ev.StrongestTieWith)
	}
	e.U64(uint64(len(t.hist)))
	for _, id := range checkpoint.SortedKeys(t.hist) {
		h := t.hist[id]
		e.I64(h.ID)
		e.I32(h.Birth)
		e.I32(h.Death)
		e.I64(h.MergedInto)
		e.U64(uint64(len(h.Features)))
		for _, f := range h.Features {
			e.I32(f.Day)
			e.Int(f.Size)
			e.F64(f.InRatio)
			e.F64(f.SelfSim)
		}
	}
}

// TestTrackerMatchesReference drives the dense tracker and the map-based
// reference through the same snapshot sequences and requires, after every
// snapshot, the same communities and average similarity, equal events and
// histories, and identical SaveState bytes. The sequences are the random
// label churn of the golden test and Louvain's incremental seed chain over
// growing random graphs, the latter on the live graph and on frozen
// snapshots; every third snapshot the dense tracker continues from its own
// restored checkpoint. A Matcher run alone over the same sequence must
// report the same communities and similarity bits, also when every third
// snapshot it is restored by advancing a fresh one over the assignment.
func TestTrackerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, containment := range []float64{0, 0.5} {
			tr, ref, m := NewTracker(3), newRefTracker(3), NewMatcher(3)
			tr.MergeContainment, ref.MergeContainment = containment, containment
			snap := 0
			churn(seed, 14, func(day int32, g *graph.Graph, assign Assignment) {
				tr, m = checkAdvanceMatches(t, tr, ref, m, day, g, assign, snap)
				snap++
			})
		}
	}
	for _, delta := range []float64{1e-6, 0.01, 0.04, 0.1} {
		for _, frozen := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				tr, ref, m := NewTracker(4), newRefTracker(4), NewMatcher(4)
				rng := stats.NewRand(seed)
				g := graph.New(64)
				var prev []int32
				for snap := 0; snap < 8; snap++ {
					growClustered(g, rng)
					var v graph.View = g
					if frozen {
						v = g.Freeze()
					}
					var init []int32
					if prev != nil {
						init = make([]int32, v.NumNodes())
						for u := range init {
							init[u] = -1
						}
						copy(init, prev)
					}
					lr, err := louvain.Run(v, louvain.Options{Delta: delta, MaxLevels: 1, Seed: seed, Init: init})
					if err != nil {
						t.Fatal(err)
					}
					prev = lr.Community
					tr, m = checkAdvanceMatches(t, tr, ref, m, int32(3*snap), v, Assignment(lr.Community), snap)
				}
			}
		}
	}
}

// growClustered adds nodes and edges to g, most edges between nearby
// ids, so Louvain finds communities that grow, merge and split over the
// snapshots.
func growClustered(g *graph.Graph, rng *rand.Rand) {
	n := g.NumNodes()
	for k := 0; k < 50+rng.Intn(80); k++ {
		u := graph.NodeID(n + k)
		g.EnsureNode(u)
		if n+k > 0 {
			g.AddEdge(u, graph.NodeID(rng.Intn(n+k)))
		}
	}
	for k := 0; k < 2*g.NumNodes(); k++ {
		u := rng.Intn(g.NumNodes())
		v := u + rng.Intn(30) - 15
		if v >= 0 && v < g.NumNodes() && v != u {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
}

// checkAdvanceMatches advances both trackers and the matcher by one
// snapshot and compares them. It returns the dense tracker and matcher to
// continue with: every third snapshot copies restored from the tracker's
// checkpoint and from the snapshot's assignment.
func checkAdvanceMatches(t *testing.T, tr *Tracker, ref *refTracker, m *Matcher, day int32, g graph.View, assign Assignment, snap int) (*Tracker, *Matcher) {
	t.Helper()
	got := tr.Advance(day, g, assign)
	want := ref.Advance(day, g, assign)
	if math.Float64bits(got.AvgSimilarity) != math.Float64bits(want.AvgSimilarity) {
		t.Fatalf("snapshot %d: average similarity %v, reference %v", snap, got.AvgSimilarity, want.AvgSimilarity)
	}
	cur, sim := m.Advance(assign, g.NumNodes())
	if math.Float64bits(sim) != math.Float64bits(got.AvgSimilarity) || len(cur) != len(got.Communities) {
		t.Fatalf("snapshot %d: matcher has %d communities and similarity %v, tracker %d and %v", snap, len(cur), sim, len(got.Communities), got.AvgSimilarity)
	}
	for j, c := range cur {
		if !slices.Equal(c.Nodes, got.Communities[j].Nodes) {
			t.Fatalf("snapshot %d: matcher community %d differs from the tracker's", snap, j)
		}
	}
	if len(got.Communities) != len(want.Communities) {
		t.Fatalf("snapshot %d: %d communities, reference %d", snap, len(got.Communities), len(want.Communities))
	}
	for _, c := range got.Communities {
		if !slices.Equal(c.Nodes, want.Communities[c.ID]) {
			t.Fatalf("snapshot %d: community %d differs from the reference", snap, c.ID)
		}
	}
	if !reflect.DeepEqual(tr.Events(), ref.Events()) {
		t.Fatalf("snapshot %d: events differ from the reference", snap)
	}
	if len(tr.Histories()) != len(ref.Histories()) {
		t.Fatalf("snapshot %d: %d histories, reference %d", snap, len(tr.Histories()), len(ref.Histories()))
	}
	for _, h := range tr.Histories() {
		if !reflect.DeepEqual(h, ref.Histories()[h.ID]) {
			t.Fatalf("snapshot %d: history %d differs from the reference", snap, h.ID)
		}
	}
	state := func(save func(*checkpoint.Encoder)) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf)
		save(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b := state(tr.SaveState)
	if !bytes.Equal(b, state(ref.SaveState)) {
		t.Fatalf("snapshot %d: SaveState bytes differ from the reference", snap)
	}
	if snap%3 != 2 {
		return tr, m
	}
	restored := NewTracker(tr.MinSize)
	restored.MergeContainment = tr.MergeContainment
	if err := restored.LoadState(checkpoint.NewDecoder(b)); err != nil {
		t.Fatalf("snapshot %d: restore: %v", snap, err)
	}
	rm := NewMatcher(m.MinSize)
	rm.Advance(assign, g.NumNodes())
	return restored, rm
}
