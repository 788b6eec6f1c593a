// Package graph implements the dynamic undirected graph substrate the
// reproduction is built on: an append-only adjacency structure sized for
// millions of edges, breadth-first traversals, connected components, and a
// degree-proportional sampler used by preferential-attachment processes.
//
// Node identifiers are dense int32 values assigned in arrival order, which
// matches the paper's anonymized event stream where users are numbered by
// account-creation time.
//
// Adjacency is stored in chunked arenas rather than per-node slices: each
// node's neighbor list is a chain of fixed-size chunks carved from a few
// large pointer-free backing arrays. A million-node graph is a handful of
// allocations the garbage collector never has to scan element by element,
// instead of millions of slice headers it must mark on every cycle. Chunk
// chains are append-only and preserve insertion order exactly — adjacency
// order is semantic here: checkpoints serialize it, and the engine/batch
// bit-identical equivalence depends on every reader seeing the same order.
package graph

import (
	"errors"
	"fmt"
)

// NodeID identifies a node. IDs are dense and assigned in arrival order.
type NodeID = int32

// Chunk size classes. Every node's first chunk is small (most OSN nodes
// stay low-degree, so the common case is one 8-slot chunk and zero chain
// hops); overflow chunks are larger so higher-degree nodes amortize the
// chain. With this fixed policy the tail chunk's fill is derivable from the
// degree alone, so no per-chunk length bookkeeping is needed.
//
// The overflow class is deliberately modest: in a heavy-tailed degree
// distribution most nodes that outgrow the first chunk stop within a few
// dozen neighbors, so a large overflow class strands most of its slots —
// at the million-node preset, 64-slot overflow chunks held ~2.5x more
// slack than payload (~70 MB of the live heap), while 16-slot chunks keep
// a degree-24 node at two hops and cap the tail waste at 60 bytes. Truly
// high-degree hubs pay proportionally more next-refs, but a chain hop is
// one array read against 16 payload reads.
const (
	smallSlots = 8
	largeSlots = 16
)

// A chunk reference packs the arena index and the size class into one
// int32: idx<<1 | class, with class 0 = small, 1 = large. nilRef ends a
// chain (and marks a degree-0 node's head).
const nilRef = int32(-1)

// Graph is a growing undirected simple graph. The zero value is ready to use.
// Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	// Per-node columns: head/tail chunk refs and degree.
	heads []int32
	tails []int32
	deg   []int32

	// Arenas. small/large hold the chunk payload slots; smallNext/largeNext
	// hold each chunk's successor ref (indexed by chunk, not slot).
	small     []NodeID
	smallNext []int32
	large     []NodeID
	largeNext []int32

	// arcs counts directed adjacency entries; NumEdges is arcs/2.
	arcs int64
}

// New returns an empty graph with capacity hints for n nodes.
func New(nHint int) *Graph {
	return &Graph{
		heads: make([]int32, 0, nHint),
		tails: make([]int32, 0, nHint),
		deg:   make([]int32, 0, nHint),
	}
}

// growInt32 extends s to length n, filling new entries with fill. The
// no-grow path is allocation free; growth at least doubles capacity so
// repeated one-node extensions stay amortized O(1).
func growInt32(s []int32, n int, fill int32) []int32 {
	if n <= len(s) {
		return s
	}
	old := len(s)
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		ns := make([]int32, n, c)
		copy(ns, s)
		s = ns
	} else {
		s = s[:n]
	}
	if fill != 0 {
		for i := old; i < n; i++ {
			s[i] = fill
		}
	}
	return s
}

// AddNode appends a new node and returns its id.
func (g *Graph) AddNode() NodeID {
	n := len(g.deg) + 1
	g.heads = growInt32(g.heads, n, nilRef)
	g.tails = growInt32(g.tails, n, nilRef)
	g.deg = growInt32(g.deg, n, 0)
	return NodeID(n - 1)
}

// EnsureNode grows the graph so that id is a valid node. The whole gap is
// grown in one reservation, not one node at a time — this is on the
// event-apply hot path for every node-creation event.
func (g *Graph) EnsureNode(id NodeID) {
	n := int(id) + 1
	if n <= len(g.deg) {
		return
	}
	g.heads = growInt32(g.heads, n, nilRef)
	g.tails = growInt32(g.tails, n, nilRef)
	g.deg = growInt32(g.deg, n, 0)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.deg) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.arcs / 2 }

// Arcs returns the number of directed adjacency entries (twice the edge
// count for a consistent undirected graph). Deserialization paths use it
// to validate that every edge was appended from both endpoints.
func (g *Graph) Arcs() int64 { return g.arcs }

// Degree returns the degree of node u, or 0 for out-of-range ids.
func (g *Graph) Degree(u NodeID) int {
	if u < 0 || int(u) >= len(g.deg) {
		return 0
	}
	return int(g.deg[u])
}

// newSmall carves a fresh small chunk and returns its packed ref.
func (g *Graph) newSmall() int32 {
	idx := int32(len(g.smallNext))
	var zero [smallSlots]NodeID
	g.small = append(g.small, zero[:]...)
	g.smallNext = append(g.smallNext, nilRef)
	return idx << 1
}

// newLarge carves a fresh large chunk and returns its packed ref.
func (g *Graph) newLarge() int32 {
	idx := int32(len(g.largeNext))
	var zero [largeSlots]NodeID
	g.large = append(g.large, zero[:]...)
	g.largeNext = append(g.largeNext, nilRef)
	return idx<<1 | 1
}

// setNext links ref's chunk to next.
func (g *Graph) setNext(ref, next int32) {
	if ref&1 == 0 {
		g.smallNext[ref>>1] = next
	} else {
		g.largeNext[ref>>1] = next
	}
}

// push appends v to u's adjacency chain. u must be a valid node.
func (g *Graph) push(u, v NodeID) {
	d := g.deg[u]
	if d < smallSlots {
		if d == 0 {
			ref := g.newSmall()
			g.heads[u] = ref
			g.tails[u] = ref
		}
		g.small[int(g.tails[u]>>1)*smallSlots+int(d)] = v
	} else {
		fill := (d - smallSlots) % largeSlots
		if fill == 0 {
			ref := g.newLarge()
			g.setNext(g.tails[u], ref)
			g.tails[u] = ref
		}
		g.large[int(g.tails[u]>>1)*largeSlots+int(fill)] = v
	}
	g.deg[u] = d + 1
	g.arcs++
}

// ChunkIter walks one node's adjacency as contiguous runs of NodeIDs, in
// insertion order. It lets hot loops (BFS, clustering, CSR builds) consume
// arena-backed adjacency without a closure per neighbor or a copy per node.
type ChunkIter struct {
	g   *Graph
	ref int32
	rem int32
}

// Chunks returns an iterator over u's adjacency. Call Next until it
// returns nil:
//
//	for it := g.Chunks(u); ; {
//		s := it.Next()
//		if s == nil {
//			break
//		}
//		for _, v := range s { ... }
//	}
func (g *Graph) Chunks(u NodeID) ChunkIter {
	if u < 0 || int(u) >= len(g.deg) {
		return ChunkIter{ref: nilRef}
	}
	return ChunkIter{g: g, ref: g.heads[u], rem: g.deg[u]}
}

// Next returns the next contiguous run of neighbors, or nil at the end.
// The returned slice aliases the arena and must not be modified.
func (it *ChunkIter) Next() []NodeID {
	if it.rem <= 0 || it.ref == nilRef {
		return nil
	}
	var s []NodeID
	var next int32
	if it.ref&1 == 0 {
		base := int(it.ref>>1) * smallSlots
		s = it.g.small[base : base+smallSlots]
		next = it.g.smallNext[it.ref>>1]
	} else {
		base := int(it.ref>>1) * largeSlots
		s = it.g.large[base : base+largeSlots]
		next = it.g.largeNext[it.ref>>1]
	}
	if int32(len(s)) > it.rem {
		s = s[:it.rem]
	}
	it.rem -= int32(len(s))
	it.ref = next
	return s
}

// AppendNeighbors appends u's neighbors to dst in insertion order and
// returns the extended slice. Callers that need a materialized adjacency
// list reuse one scratch buffer across nodes (dst[:0]) so the copy is the
// only cost.
func (g *Graph) AppendNeighbors(dst []NodeID, u NodeID) []NodeID {
	for it := g.Chunks(u); ; {
		s := it.Next()
		if s == nil {
			return dst
		}
		dst = append(dst, s...)
	}
}

// ForEachNeighbor calls fn for each neighbor of u in insertion order.
func (g *Graph) ForEachNeighbor(u NodeID, fn func(v NodeID)) {
	for it := g.Chunks(u); ; {
		s := it.Next()
		if s == nil {
			return
		}
		for _, v := range s {
			fn(v)
		}
	}
}

// NeighborAt returns u's i-th neighbor in insertion order. It panics if i
// is out of range. The first small chunk is O(1); deeper positions walk
// the large-chunk chain.
func (g *Graph) NeighborAt(u NodeID, i int) NodeID {
	if u < 0 || int(u) >= len(g.deg) || i < 0 || i >= int(g.deg[u]) {
		panic(fmt.Sprintf("graph: NeighborAt(%d, %d) out of range", u, i))
	}
	ref := g.heads[u]
	if i < smallSlots {
		return g.small[int(ref>>1)*smallSlots+i]
	}
	i -= smallSlots
	ref = g.smallNext[ref>>1]
	for i >= largeSlots {
		i -= largeSlots
		ref = g.largeNext[ref>>1]
	}
	return g.large[int(ref>>1)*largeSlots+i]
}

// HasEdge reports whether the undirected edge {u, v} exists. It scans the
// smaller adjacency list, so it is O(min(deg(u), deg(v))).
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || int(u) >= len(g.deg) || int(v) >= len(g.deg) {
		return false
	}
	a, b := u, v
	if g.deg[a] > g.deg[b] {
		a, b = b, a
	}
	for it := g.Chunks(a); ; {
		s := it.Next()
		if s == nil {
			return false
		}
		for _, w := range s {
			if w == b {
				return true
			}
		}
	}
}

// ErrSelfLoop is returned by AddEdge for u == v.
var ErrSelfLoop = errors.New("graph: self loop")

// ErrDuplicateEdge is returned by AddEdge when the edge already exists.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// AddEdge inserts the undirected edge {u, v}, growing the node set as
// needed. Self loops and duplicate edges are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return ErrSelfLoop
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id (%d, %d)", u, v)
	}
	hi := u
	if v > hi {
		hi = v
	}
	g.EnsureNode(hi)
	if g.HasEdge(u, v) {
		return ErrDuplicateEdge
	}
	g.push(u, v)
	g.push(v, u)
	return nil
}

// AppendArc appends v to u's adjacency without the simple-graph checks,
// growing the node set as needed. It exists for the checkpoint reader,
// which rebuilds a graph's exact adjacency row by row; every undirected
// edge must be appended from both endpoints, and NumEdges counts appended
// arcs in pairs.
func (g *Graph) AppendArc(u, v NodeID) {
	g.EnsureNode(u)
	g.push(u, v)
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v NodeID)) {
	for u := 0; u < len(g.deg); u++ {
		for it := g.Chunks(NodeID(u)); ; {
			s := it.Next()
			if s == nil {
				break
			}
			for _, v := range s {
				if NodeID(u) < v {
					fn(NodeID(u), v)
				}
			}
		}
	}
}
