package graph

import "math/bits"

// Unreachable is the distance reported for nodes not reachable from the
// BFS source.
const Unreachable = -1

// BFS computes hop distances from src to every node. The result slice has
// one entry per node; unreachable nodes get Unreachable. It is the
// single-source reference DistanceSums is tested against.
func (g *Graph) BFS(src NodeID) []int32 {
	n := len(g.deg)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || int(src) >= n {
		return dist
	}
	queue := []NodeID{src}
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for it := g.Chunks(u); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if dist[v] == Unreachable {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// Lanes is the number of sources one DistanceSums traversal carries: one
// bit per source in a node's uint64 words.
const Lanes = 64

// LaneScratch is DistanceSums' reusable per-node state. Its three word
// columns grow geometrically with the graph, so repeated traversals on a
// growing graph reallocate only O(log n) times. The zero value is ready
// to use; a LaneScratch must not be shared by concurrent traversals.
type LaneScratch struct {
	seen, cur, next []uint64
}

// grow sizes the columns for n nodes.
func (sc *LaneScratch) grow(n int) {
	if cap(sc.seen) >= n {
		return
	}
	c := max(n, 2*cap(sc.seen))
	sc.seen = make([]uint64, c)
	sc.cur = make([]uint64, c)
	sc.next = make([]uint64, c)
}

// DistanceSums runs a BFS from each of up to Lanes sources at once — the
// bit-parallel multi-source BFS of Then et al., "The More the Merrier"
// (VLDB 2014) — and returns the sum of the hop distances from every source
// to every other node it reaches, and the number of those (source, node)
// pairs. The totals equal a per-source BFS loop's exactly.
//
// Lane i is bit i of a node's words: seen holds the lanes that have
// reached the node, cur the lanes its neighbors pushed to it at the last
// level, next the lanes pushed to it for the following one. One level is
// one scan of nodes: a node's new lanes are cur minus seen, and it pushes
// them into every neighbor's next word. So an adjacency list is read once
// per level at which some lane first reaches its node — at most once per
// level, not once per source.
//
// nodes must hold every source and every node reachable from them (a
// union of whole connected components, such as LargestComponent's
// result); only those nodes are scanned. The live graph is read
// through its chunk arena, so the graph must not change during the call.
func (g *Graph) DistanceSums(sources, nodes []NodeID, sc *LaneScratch) (total, pairs int64) {
	if len(sources) > Lanes {
		panic("graph: DistanceSums takes at most Lanes sources")
	}
	sc.grow(len(g.deg))
	seen, cur, next := sc.seen, sc.cur, sc.next
	// A finished traversal leaves cur and next all zero (each level clears
	// the cur words it reads, and the last level pushes nothing), so only
	// seen needs a reset.
	for _, v := range nodes {
		seen[v] = 0
	}
	// Level 0: each source takes its lane and pushes it to its neighbors.
	for i, s := range sources {
		seen[s] |= 1 << i
		for it := g.Chunks(s); ; {
			run := it.Next()
			if run == nil {
				break
			}
			for _, v := range run {
				cur[v] |= 1 << i
			}
		}
	}
	for level := int64(1); ; level++ {
		reached := false
		for _, u := range nodes {
			in := cur[u]
			if in == 0 {
				continue
			}
			cur[u] = 0
			f := in &^ seen[u]
			if f == 0 {
				continue
			}
			reached = true
			seen[u] |= f
			c := int64(bits.OnesCount64(f))
			total += level * c
			pairs += c
			for it := g.Chunks(u); ; {
				run := it.Next()
				if run == nil {
					break
				}
				for _, v := range run {
					next[v] |= f
				}
			}
		}
		if !reached {
			return total, pairs
		}
		cur, next = next, cur
	}
}

// SetScratch is ShortestToSet's reusable per-node state: an
// epoch-stamped visited column (a node is visited in the current call iff
// its stamp equals the call's epoch, so no reset pass is needed) and the
// BFS queue. Both grow with the graph and are kept between calls. The
// zero value is ready to use; a SetScratch must not be shared by
// concurrent calls.
type SetScratch struct {
	mark  []uint32
	epoch uint32
	queue []NodeID
}

// begin starts a call over n nodes and returns its epoch.
func (sc *SetScratch) begin(n int) uint32 {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, max(n, 2*len(sc.mark)))
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: old stamps could collide
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc.epoch
}

// ShortestToSet returns the hop distance from src to the nearest node for
// which target returns true, traversing only allowed nodes (nil allows all).
// Target nodes themselves must be allowed to be reached. It returns
// Unreachable when no target can be reached. sc carries the traversal
// state between calls (nil allocates a fresh one).
func (g *Graph) ShortestToSet(src NodeID, target func(NodeID) bool, allowed func(NodeID) bool, sc *SetScratch) int32 {
	if src < 0 || int(src) >= len(g.deg) {
		return Unreachable
	}
	if target(src) {
		return 0
	}
	if sc == nil {
		sc = &SetScratch{}
	}
	epoch := sc.begin(len(g.deg))
	mark := sc.mark
	mark[src] = epoch
	queue := append(sc.queue[:0], src)
	// The queue holds one BFS level after another; levelEnd is the index
	// one past the last node at distance level from src.
	dist, level, levelEnd := int32(Unreachable), int32(0), 1
search:
	for head := 0; head < len(queue); head++ {
		if head == levelEnd {
			level++
			levelEnd = len(queue)
		}
		for it := g.Chunks(queue[head]); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if mark[v] == epoch {
					continue
				}
				if allowed != nil && !allowed(v) {
					continue
				}
				if target(v) {
					dist = level + 1
					break search
				}
				mark[v] = epoch
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue[:0]
	return dist
}
