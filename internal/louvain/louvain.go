// Package louvain implements the Louvain community-detection algorithm
// (Blondel et al. 2008) with the two features the paper relies on in §4.1:
//
//   - a modularity-gain threshold δ that stops optimization once the
//     improvement of a sweep falls below it — the knob whose sensitivity the
//     paper analyzes in Fig 4; and
//   - an incremental mode, where the partition found on the previous
//     snapshot seeds the initial community assignment for the next one,
//     giving communities an explicit identity tie across snapshots.
//
// The implementation is the standard two-phase scheme: local moving of
// nodes until the modularity gain of a sweep drops below δ, then
// aggregation of communities into a weighted super-graph, repeated until no
// level improves modularity by more than δ.
package louvain

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Options configures a Louvain run.
type Options struct {
	// Delta is the modularity-gain threshold δ: a local-moving sweep (and
	// a whole level) stops when it improves modularity by less than this.
	Delta float64
	// MaxLevels bounds the number of aggregation levels (0 = default 32).
	MaxLevels int
	// Seed drives the node-visiting order shuffle.
	Seed int64
	// Init optionally assigns each node an initial community label
	// (incremental mode). Labels need not be dense. -1 is a label like
	// any other: every node labelled -1 starts in one shared community,
	// not as a singleton. nil means all singletons.
	Init []int32
	// Prev optionally names the previous run of an incremental chain: a
	// run over a graph that this run's graph extends by appending, so
	// that every node u of Prev's graph keeps its first deg(u) arcs, in
	// order (a graph.Graph only grows, and a graph.Frozen keeps insertion
	// order). Prev never changes the result. When Init keeps every node
	// of Prev's graph in Prev's final community, level 0 starts from
	// Prev's per-community tallies and counts only the appended arcs;
	// otherwise it counts every arc.
	Prev *Result
}

// Result is the output of a Louvain run.
type Result struct {
	// Community[u] is the final community label of node u. Labels are
	// dense in [0, NumCommunities).
	Community []int32
	// Modularity of the final partition on the input graph.
	Modularity float64
	// Levels actually performed.
	Levels int

	// carry is what a one-level run leaves for a seeded successor; nil
	// after more levels, and in a Result built outside this package (a
	// restored checkpoint's partition).
	carry *carry
}

// carry is a one-level run's level-0 tallies, kept for the next run of
// the seed chain: the arc count of each node and, per final label, the
// doubled intra-community weight. A degree column rather than the
// graph's offsets keeps the snapshot's CSR collectable.
//
// Carrying is exact. Level-0 arcs have unit weight, so every per-label
// sum is an integer below 2^53, which float64 represents exactly in any
// summation order (the argument of the wgraph comment): the carried sum
// plus the appended arcs equals tally's recount bit for bit.
type carry struct {
	deg []int32
	in  []float64
}

// NumCommunities returns the number of distinct final communities.
func (r *Result) NumCommunities() int {
	max := int32(-1)
	for _, c := range r.Community {
		if c > max {
			max = c
		}
	}
	return int(max + 1)
}

// Groups returns the member lists of each community, indexed by label.
func (r *Result) Groups() [][]graph.NodeID {
	out := make([][]graph.NodeID, r.NumCommunities())
	for u, c := range r.Community {
		out[c] = append(out[c], graph.NodeID(u))
	}
	return out
}

// wgraph is a weighted multigraph in CSR form: node u's arcs are
// tgt[off[u]:off[u+1]], self loops excluded. Level 0 (the input graph) has
// unit weights, so wt, self and deg stay nil and a Frozen snapshot's
// columns are aliased as they are. Aggregation levels (a few thousand
// super-nodes) carry fractional arc weights in wt, the intra-community
// weight of each super-node in self, and weighted degrees in deg.
//
// Every weight is a multiple of 0.5, and every sum of weights this
// package forms stays far below 2^52, so float64 represents each partial
// sum exactly: totals are independent of accumulation order, which is
// what lets the move phase keep its community totals incrementally and
// still match a from-scratch recount bit for bit.
type wgraph struct {
	n    int
	off  []int64
	tgt  []int32
	wt   []float64 // arc weights; nil = all 1
	self []float64 // self-loop weight (intra-community weight); nil = all 0
	deg  []float64 // weighted degree incl. 2*self; nil = arc count

	total float64 // 2m: sum of all degrees
}

// degree returns u's weighted degree.
func (w *wgraph) degree(u int32) float64 {
	if w.deg == nil {
		return float64(w.off[u+1] - w.off[u])
	}
	return w.deg[u]
}

// selfWeight returns u's self-loop weight (always 0 at level 0).
func (w *wgraph) selfWeight(u int32) float64 {
	if w.self == nil {
		return 0
	}
	return w.self[u]
}

// weight returns the weight of arc i.
func (w *wgraph) weight(i int64) float64 {
	if w.wt == nil {
		return 1
	}
	return w.wt[i]
}

func newWGraphFromGraph(g graph.View) *wgraph {
	// A Frozen snapshot already *is* the level-0 CSR — same offsets/targets
	// layout, same insertion order, simple graph with unit weights and no
	// self loops — so alias its columns instead of copying them. The
	// wgraph never mutates off/tgt (aggregation levels derive fresh
	// super-graphs), and the result is bit-identical by construction: the
	// arrays are the same ones a copy would have reproduced. This removes
	// the single largest per-snapshot allocation of the δ-sweep.
	if f, ok := g.(*graph.Frozen); ok {
		off, tgt := f.CSR()
		return &wgraph{n: f.NumNodes(), off: off, tgt: tgt, total: float64(off[len(off)-1])}
	}
	n := g.NumNodes()
	w := &wgraph{n: n, off: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		w.off[u+1] = w.off[u] + int64(g.Degree(graph.NodeID(u)))
	}
	tgt := make([]graph.NodeID, 0, w.off[n])
	for u := 0; u < n; u++ {
		tgt = g.AppendNeighbors(tgt, graph.NodeID(u))
	}
	w.tgt = tgt
	w.total = float64(w.off[n])
	return w
}

// modularity computes Q for the given community assignment over w, from
// dense per-label arrays so the summation order (and therefore the
// floating-point rounding) is deterministic.
func (w *wgraph) modularity(comm []int32) float64 {
	nc := maxLabel(comm) + 1
	in := make([]float64, nc)
	tot := make([]float64, nc)
	w.tally(comm, in, tot)
	return partitionQ(in, tot, w.total)
}

// tally adds, per label c of comm, twice the intra-community weight to
// in[c] (every internal arc is seen from both ends) and the degree mass to
// tot[c].
func (w *wgraph) tally(comm []int32, in, tot []float64) {
	for u := 0; u < w.n; u++ {
		c := comm[u]
		tot[c] += w.degree(int32(u))
		in[c] += 2 * w.selfWeight(int32(u))
		for i := w.off[u]; i < w.off[u+1]; i++ {
			if comm[w.tgt[i]] == c {
				in[c] += w.weight(i)
			}
		}
	}
}

// carried returns prev's level-0 tallies if they apply to the level-0
// assignment comm on w, nil if not. They apply when prev's graph had no
// more nodes than w, no node has fewer arcs than it had then, and comm
// keeps every one of prev's nodes in prev's final label. The check is
// O(n); the append-only extension it cannot see is Options.Prev's
// contract.
func (w *wgraph) carried(comm []int32, prev *Result) *carry {
	if prev == nil || prev.carry == nil || len(prev.carry.deg) > w.n {
		return nil
	}
	for u, d := range prev.carry.deg {
		if int64(d) > w.off[u+1]-w.off[u] || comm[u] != prev.Community[u] {
			return nil
		}
	}
	return prev.carry
}

// tallyCarried is tally at level 0 from a predecessor's carried tallies
// c: node u's first c.deg[u] arcs are the predecessor's, already summed
// into c.in, so only the arcs past them are read.
func (w *wgraph) tallyCarried(comm []int32, in, tot []float64, c *carry) {
	copy(in, c.in)
	for u := 0; u < w.n; u++ {
		cu := comm[u]
		tot[cu] += w.degree(int32(u))
		from := w.off[u]
		if u < len(c.deg) {
			from += int64(c.deg[u])
		}
		for i := from; i < w.off[u+1]; i++ {
			if comm[w.tgt[i]] == cu {
				in[cu]++
			}
		}
	}
}

// degrees returns each node's arc count, the carry's degree column.
func (w *wgraph) degrees() []int32 {
	deg := make([]int32, w.n)
	for u := range deg {
		deg[u] = int32(w.off[u+1] - w.off[u])
	}
	return deg
}

// partitionQ is the modularity of a partition given each label's doubled
// intra-community weight and degree mass, summed in label order.
func partitionQ(in, tot []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	var q float64
	for c := range in {
		q += in[c]/total - (tot[c]/total)*(tot[c]/total)
	}
	return q
}

// ErrInitLength is returned when Options.Init has the wrong length.
var ErrInitLength = errors.New("louvain: init assignment length mismatch")

// Prepared is a Louvain-ready weighted view of a graph: the level-0
// weighted adjacency built once by Prepare and read, never written, by
// RunPrepared. It exists for two reasons. First, a single run needs the
// base weighted graph twice — for optimization and for the final
// modularity — and Prepared makes that one build instead of two. Second,
// it is safe to share between any number of concurrent RunPrepared calls,
// so the δ-sweep builds one Prepared per frozen snapshot and every per-δ
// worker reuses it, instead of K workers re-deriving identical weighted
// graphs.
type Prepared struct {
	w *wgraph
}

// Prepare builds the shared weighted view of g. The result is immutable
// and unaffected by later growth of g's underlying graph.
func Prepare(g graph.View) *Prepared {
	return &Prepared{w: newWGraphFromGraph(g)}
}

// NumNodes returns the node count at Prepare time.
func (p *Prepared) NumNodes() int { return p.w.n }

// Run performs Louvain community detection on g. It only reads the graph,
// so g may be the live replay graph or an immutable graph.Frozen snapshot
// shared with other concurrent runs (the δ-sweep's fan-out).
func Run(g graph.View, opt Options) (*Result, error) {
	return RunPrepared(Prepare(g), opt)
}

// RunPrepared is Run over a pre-built weighted view, bit-identical to Run
// on the graph Prepare saw: the level-0 weighted graph is a pure function
// of the adjacency, optimization never mutates it (aggregation levels
// derive fresh super-graphs), and level-0 weights are unit so summation
// order cannot perturb the floats.
func RunPrepared(p *Prepared, opt Options) (*Result, error) {
	n := p.w.n
	if opt.Init != nil && len(opt.Init) != n {
		return nil, ErrInitLength
	}
	if opt.Delta <= 0 {
		opt.Delta = 1e-6
	}
	maxLevels := opt.MaxLevels
	if maxLevels <= 0 {
		maxLevels = 32
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// final[u] tracks each original node's community through the levels.
	final := make([]int32, n)
	w := p.w

	// Level-0 initial assignment: Init labels densified, or singletons.
	var init []int32
	if opt.Init != nil {
		init = densify(opt.Init)
	}

	// The level loop embodies the paper's δ semantics: aggregation
	// continues only while a level improves modularity by at least δ.
	// A large δ therefore terminates early with finer communities; a
	// small δ aggregates toward the resolution limit.
	levels := 0
	prevQ := 0.0
	var in0 []float64 // level 0's final per-label doubled intra weight
	for level := 0; level < maxLevels; level++ {
		comm, in, tot := init, make([]float64, w.n), make([]float64, w.n)
		init = nil // only the first level is seeded
		if comm == nil {
			comm = make([]int32, w.n)
			for u := range comm {
				comm[u] = int32(u)
			}
			w.tally(comm, in, tot)
		} else if c := w.carried(comm, opt.Prev); c != nil {
			w.tallyCarried(comm, in, tot, c)
		} else {
			w.tally(comm, in, tot)
		}
		localMove(w, comm, in, tot, opt.Delta, rng)
		dense := densify(comm)
		nc := maxLabel(dense) + 1
		// The move phase leaves its exact per-label totals behind; carried
		// over to the dense labels they give this level's modularity
		// without another pass over the arcs.
		inD, totD := make([]float64, nc), make([]float64, nc)
		for u, c := range comm {
			inD[dense[u]], totD[dense[u]] = in[c], tot[c]
		}
		q := partitionQ(inD, totD, w.total)
		if level > 0 && q-prevQ < opt.Delta {
			break // this level is not worth δ; discard it
		}
		levels++
		prevQ = q

		// Fold this level's assignment into the original-node mapping.
		if level == 0 {
			in0 = inD
			copy(final, dense)
		} else {
			for u := range final {
				final[u] = dense[final[u]]
			}
		}

		if int(nc) == w.n || level+1 == maxLevels {
			break // converged, or no level left to use the super-graph
		}
		w = w.aggregate(dense, int(nc))
	}

	res := &Result{Community: densify(final), Levels: levels}
	if levels == 1 {
		// final is level 0's dense assignment, already in first-appearance
		// order, on p.w itself: its modularity is the q just computed,
		// and its tallies are the ones a seeded successor can carry.
		res.Modularity = prevQ
		res.carry = &carry{deg: p.w.degrees(), in: in0}
	} else {
		res.Modularity = p.w.modularity(res.Community)
	}
	return res, nil
}

// Modularity computes the modularity of an arbitrary assignment on g,
// exported for δ-sensitivity analyses (Fig 4a).
func Modularity(g graph.View, comm []int32) float64 {
	if len(comm) != g.NumNodes() {
		return 0
	}
	return newWGraphFromGraph(g).modularity(comm)
}

// localMove runs the phase-1 sweeps on w from the assignment comm (dense
// labels below w.n) until a sweep gains less than delta, updating comm in
// place together with its per-label doubled intra-community weight in and
// degree mass tot, which the caller tallied for the starting assignment.
//
// Every label stays below w.n, so the community totals and the per-node
// link weights live in dense slices indexed by label. The totals are kept
// up to date as nodes move, which makes each sweep's modularity check
// O(labels) instead of a pass over every arc.
func localMove(w *wgraph, comm []int32, in, tot []float64, delta float64, rng *rand.Rand) {
	order := rng.Perm(w.n)
	m2 := w.total
	if m2 == 0 {
		return
	}
	q := func() float64 {
		nc := maxLabel(comm) + 1
		return partitionQ(in[:nc], tot[:nc], m2)
	}
	// links[c] is u's weight to community c, wiped after each node through
	// keys, the labels it touched. Weights are positive, so a zero entry
	// means "not touched yet".
	links := make([]float64, w.n)
	var keys []int32

	prevQ := q()
	for sweep := 0; sweep < 128; sweep++ {
		moved := false
		for _, ui := range order {
			u := int32(ui)
			cu := comm[u]
			keys = keys[:0]
			for i := w.off[u]; i < w.off[u+1]; i++ {
				c := comm[w.tgt[i]]
				if links[c] == 0 {
					keys = append(keys, c)
				}
				links[c] += w.weight(i)
			}
			// Remove u from its community.
			du := w.degree(u)
			tot[cu] -= du
			// Gain of joining community c (up to a constant factor):
			// k_{u,in}(c) - tot_c * k_u / m2. The move is decided by an
			// ordered scan: from cu, take each candidate in ascending
			// label order that beats the best so far by more than 1e-12.
			// One unsorted pass first finds the top gain and the
			// runner-up over every candidate, cu included. When the top
			// beats the runner-up by the margin, the ordered scan picks
			// the top in any visiting order: fl(x+1e-12) is monotone in
			// x, so whatever best the scan holds before reaching the top
			// is at most the runner-up and is beaten, and nothing beats
			// the top afterwards. Only near-ties need the sort.
			stay := links[cu] - tot[cu]*du/m2
			best, bestGain := cu, stay
			runnerUp := math.Inf(-1)
			for _, c := range keys {
				if c == cu {
					continue
				}
				gain := links[c] - tot[c]*du/m2
				if gain > bestGain {
					best, bestGain, runnerUp = c, gain, bestGain
				} else if gain > runnerUp {
					runnerUp = gain
				}
			}
			if bestGain <= runnerUp+1e-12 {
				slices.Sort(keys)
				best, bestGain = cu, stay
				for _, c := range keys {
					if c == cu {
						continue
					}
					gain := links[c] - tot[c]*du/m2
					if gain > bestGain+1e-12 {
						best, bestGain = c, gain
					}
				}
			}
			if best != cu {
				// u's arcs into a community count twice in its doubled
				// intra weight: once from u, once from the other end.
				su := 2 * w.selfWeight(u)
				in[cu] -= 2*links[cu] + su
				in[best] += 2*links[best] + su
				moved = true
			}
			for _, c := range keys {
				links[c] = 0
			}
			comm[u] = best
			tot[best] += du
		}
		if !moved {
			break
		}
		q := q()
		if q-prevQ < delta {
			break
		}
		prevQ = q
	}
}

// aggregate builds the super-graph where each community becomes one node.
// A super-node's arcs are collected by walking its members in node order
// and summing weights per neighboring community in a dense accumulator.
func (w *wgraph) aggregate(comm []int32, nc int) *wgraph {
	// Members of each community, grouped by a counting sort.
	start := make([]int32, nc+1)
	for _, c := range comm {
		start[c+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, w.n)
	fill := append([]int32(nil), start[:nc]...)
	for u, c := range comm {
		members[fill[c]] = int32(u)
		fill[c]++
	}

	out := &wgraph{
		n:    nc,
		off:  make([]int64, nc+1),
		self: make([]float64, nc),
		deg:  make([]float64, nc),
	}
	acc := make([]float64, nc)
	var touched []int32
	for c := 0; c < nc; c++ {
		for _, u := range members[start[c]:start[c+1]] {
			out.self[c] += w.selfWeight(u)
			for i := w.off[u]; i < w.off[u+1]; i++ {
				cv := comm[w.tgt[i]]
				if int(cv) == c {
					out.self[c] += w.weight(i) / 2 // seen from both sides
					continue
				}
				if acc[cv] == 0 {
					touched = append(touched, cv)
				}
				acc[cv] += w.weight(i)
			}
		}
		d := 2 * out.self[c]
		for _, cv := range touched {
			out.tgt = append(out.tgt, cv)
			out.wt = append(out.wt, acc[cv])
			d += acc[cv]
			acc[cv] = 0
		}
		touched = touched[:0]
		out.off[c+1] = int64(len(out.tgt))
		out.deg[c] = d
		out.total += d
	}
	return out
}

// densify renumbers labels to a dense [0, k) range in order of first
// appearance, through a table indexed by each label's offset from the
// smallest. Caller-supplied labels too sparse for a table over their range
// (Options.Init need not be dense) index it by rank among the distinct
// labels instead.
func densify(labels []int32) []int32 {
	out := make([]int32, len(labels))
	if len(labels) == 0 {
		return out
	}
	lo, hi := labels[0], labels[0]
	for _, l := range labels {
		lo, hi = min(lo, l), max(hi, l)
	}
	span := int(hi) - int(lo) + 1
	key := func(l int32) int { return int(l) - int(lo) }
	if span > 2*len(labels)+1024 {
		distinct := slices.Clone(labels)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		span = len(distinct)
		key = func(l int32) int {
			k, _ := slices.BinarySearch(distinct, l)
			return k
		}
	}
	remap := make([]int32, span)
	for i := range remap {
		remap[i] = -1
	}
	var next int32
	for i, l := range labels {
		k := key(l)
		if remap[k] < 0 {
			remap[k] = next
			next++
		}
		out[i] = remap[k]
	}
	return out
}

func maxLabel(labels []int32) int32 {
	m := int32(-1)
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}
