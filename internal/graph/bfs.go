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

// ShortestToSet returns the hop distance from src to the nearest node for
// which target returns true, traversing only allowed nodes (nil allows all).
// Target nodes themselves must be allowed to be reached. It returns
// Unreachable when no target can be reached.
func (g *Graph) ShortestToSet(src NodeID, target func(NodeID) bool, allowed func(NodeID) bool) int32 {
	if src < 0 || int(src) >= len(g.deg) {
		return Unreachable
	}
	if target(src) {
		return 0
	}
	dist := make(map[NodeID]int32, 1024)
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for it := g.Chunks(u); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if _, seen := dist[v]; seen {
					continue
				}
				if allowed != nil && !allowed(v) {
					continue
				}
				if target(v) {
					return du + 1
				}
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return Unreachable
}
