// Package tracking follows communities across graph snapshots the way the
// paper does in §4.1: communities detected on consecutive snapshots are
// matched by Jaccard similarity, and the matching is interpreted as
// continuation, birth, death, merge, or split events.
//
// The paper's definitions, which this package implements literally:
//
//   - a community A *splits* at snapshot i when A is the highest-correlated
//     previous community for at least two communities at snapshot i+1; the
//     successor most similar to A keeps A's identity, the others are born;
//   - at least two communities A, B *merge* into C when C is the best match
//     of each; C takes the identity of the most similar parent, the other
//     parents die;
//   - communities matched one-to-one continue under the same identity.
//
// The tracker also records, per snapshot, the structural features used by
// the paper's merge predictor (§4.3) and the inter-community tie strengths
// used for the strongest-tie merge-destination analysis (Fig 6c).
package tracking

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// EventType classifies a community lifecycle event.
type EventType uint8

const (
	// Birth: a community with no sufficiently similar predecessor.
	Birth EventType = iota
	// Death: a community absorbed by a merge (its identity ends).
	Death
	// Merge: two or more communities fused; emitted once per dying parent.
	Merge
	// Split: one community divided; emitted once per split parent.
	Split
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case Birth:
		return "birth"
	case Death:
		return "death"
	case Merge:
		return "merge"
	case Split:
		return "split"
	default:
		return "unknown"
	}
}

// Event is one community lifecycle event.
type Event struct {
	Day  int32
	Type EventType
	// ID is the community the event happened to. For Merge it is the
	// dying parent; for Split the splitting parent; for Birth the new
	// community.
	ID int64
	// Other is the counterparty: the surviving community for Merge, zero
	// otherwise.
	Other int64
	// Similarity is the Jaccard similarity that drove the decision.
	Similarity float64
	// SizeA and SizeB record, for Merge and Split, the sizes of the two
	// largest communities involved (used for Fig 6a): for merges, the
	// dying and surviving parents; for splits, the two largest children.
	SizeA, SizeB int
	// StrongestTie reports, for Merge events, whether the surviving
	// community was the one with the largest edge count to the dying
	// community in the previous snapshot (Fig 6c).
	StrongestTie bool
	// StrongestTieWith is the community that actually had the strongest
	// tie to the dying one (diagnostic; 0 when it had no ties).
	StrongestTieWith int64
}

// Features is the per-snapshot structural description of a community used
// by the merge predictor (§4.3): size, in-degree ratio (edges inside the
// community over the total degree of its members), and self-similarity to
// the community's previous incarnation.
type Features struct {
	Day     int32
	Size    int
	InRatio float64
	SelfSim float64
}

// History is the lifetime record of one tracked community identity.
type History struct {
	ID    int64
	Birth int32 // day first seen
	Death int32 // day absorbed; -1 while alive
	// MergedInto is the surviving community for dead ones, 0 otherwise.
	MergedInto int64
	// Features has one entry per snapshot in which the community existed.
	Features []Features
}

// Alive reports whether the community was still tracked at the last
// processed snapshot.
func (h *History) Alive() bool { return h.Death < 0 }

// Lifetime returns the community's lifetime in days: death (or `now` for
// the living) minus birth.
func (h *History) Lifetime(now int32) int32 {
	if h.Death >= 0 {
		return h.Death - h.Birth
	}
	return now - h.Birth
}

// tie is one inter-community edge count of a previous-snapshot community.
type tie struct {
	id int64 // the other community
	n  int64 // edges between them
}

// Matcher groups each snapshot's community assignment into communities
// of at least MinSize nodes and matches them against the previous
// snapshot's by Jaccard similarity: every previous community's best
// match, and for every current community the previous one whose identity
// it carries. Tracker builds identities, events, features and ties on
// it; a caller that needs only the mean similarity of matched
// communities (the δ-sweep's Fig 4b) runs a Matcher alone.
//
// Communities are indexed by their position in the snapshot, nodes by
// id and labels by value, so a snapshot costs a handful of passes over
// flat slices and no hash-map traffic. The node- and label-indexed
// columns are reused from one snapshot to the next, so a Matcher is
// single-goroutine.
type Matcher struct {
	// MinSize filters out communities smaller than this (the paper uses
	// 10 to "avoid small cliques").
	MinSize int

	// seeded reports whether prev holds a snapshot to match against. A
	// snapshot without any community clears it, so the next one starts
	// over with births and no events.
	seeded bool
	prev   []Community
	// prevMember[u] is the index in prev of node u's community, -1 for
	// none; it may be shorter than the node count. member is the column
	// the next snapshot fills; the two swap after every snapshot.
	prevMember, member []int32
	// labelSize and labelIndex are group's per-label scratch.
	labelSize, labelIndex []int32
}

// NewMatcher creates a matcher with the given minimum community size.
func NewMatcher(minSize int) *Matcher {
	return &Matcher{MinSize: max(minSize, 1)}
}

// Advance groups assign, over max(len(assign), nodes) nodes, into the
// snapshot's communities, in ascending order of their smallest node, and
// returns them with the mean Jaccard similarity of the matched pairs:
// the AvgSimilarity Tracker.Advance reports for the same sequence, 0
// when nothing matched. The communities become the previous snapshot,
// so their node lists must not be modified. What Advance leaves behind
// depends only on its arguments: advancing a fresh Matcher over the
// previous snapshot's assignment restores one exactly.
func (m *Matcher) Advance(assign Assignment, nodes int) ([]Community, float64) {
	cur := m.group(assign, nodes)
	sim := 0.0
	if m.seeded {
		sim = m.bestMatches(cur).avgSimilarity()
	}
	m.shift(cur)
	return cur, sim
}

// shift makes cur the previous snapshot.
func (m *Matcher) shift(cur []Community) {
	m.prev, m.seeded = cur, len(cur) > 0
	m.prevMember, m.member = m.member, m.prevMember
}

// Tracker matches communities across snapshots and accumulates events,
// histories, and tie information. Histories are indexed by id-1 (ids are
// allocated 1, 2, 3, …); like its Matcher, a Tracker is single-goroutine.
type Tracker struct {
	// Matcher groups and matches the snapshots; its MinSize is the
	// tracker's minimum community size. Call Tracker.Advance, not the
	// Matcher's.
	Matcher
	// MergeContainment is the minimum fraction of a dying community's
	// nodes that must land in the destination (the community receiving
	// the most of its members) for the event to count as a merge rather
	// than a dissolution. The default 0 mirrors the paper, which treats
	// merging as the only cause of community death: any vanishing
	// community with surviving members is merged into its destination.
	// Raise it (e.g. to 0.5) for a strict "contributed most of their
	// nodes" reading — the ablation bench compares both.
	MergeContainment float64

	nextID int64
	// Per prev community, its inter-community edge counts in ascending id
	// order: community i's are ties[tieOff[i]:tieOff[i+1]].
	tieOff  []int32
	ties    []tie
	events  []Event
	hist    []*History // hist[id-1]
	lastDay int32
}

// NewTracker creates a tracker with the given minimum community size.
func NewTracker(minSize int) *Tracker {
	return &Tracker{Matcher: *NewMatcher(minSize), lastDay: -1}
}

// Assignment is a per-node community labeling, -1 for unassigned nodes.
// Labels must be dense enough to group by — the tracker indexes a slice
// by label — and carry no cross-snapshot meaning (identity comes from the
// tracker).
type Assignment []int32

// Community is one tracked community of a snapshot.
type Community struct {
	ID    int64
	Nodes []graph.NodeID // ascending
}

// SnapshotResult reports the tracked communities of one snapshot.
type SnapshotResult struct {
	Day int32
	// Communities lists the tracked communities in ascending order of
	// their smallest node. The tracker keeps reading them as the previous
	// snapshot, so they must not be modified.
	Communities []Community
	// AvgSimilarity is the mean Jaccard similarity between matched
	// community incarnations in the previous and current snapshot
	// (the robustness metric of Fig 4b). Zero when nothing matched.
	AvgSimilarity float64
}

// Members returns the node -> community column of the snapshot: the index
// in Communities of each node's community, -1 for nodes in none. It ends
// at the largest community node.
func (r *SnapshotResult) Members() []int32 {
	last := graph.NodeID(-1)
	for _, c := range r.Communities {
		last = max(last, c.Nodes[len(c.Nodes)-1])
	}
	member := refill[int32](nil, int(last)+1, -1)
	for i, c := range r.Communities {
		for _, u := range c.Nodes {
			member[u] = int32(i)
		}
	}
	return member
}

// Advance feeds the tracker the next snapshot: the graph as of `day` and a
// community assignment for its nodes. It returns the tracked view. The
// graph is only read, so per-δ trackers fanned out by the sweep can key
// their histories off one shared frozen snapshot (graph.Frozen) instead of
// each maintaining a private live graph.
func (t *Tracker) Advance(day int32, g graph.View, assign Assignment) *SnapshotResult {
	t.lastDay = day
	cur := t.group(assign, g.NumNodes())
	avgSim, selfSim := t.match(day, cur)
	t.recordFeatures(day, g, cur, selfSim)
	t.shift(cur)
	return &SnapshotResult{Day: day, Communities: cur, AvgSimilarity: avgSim}
}

// group collects the communities of assign with at least MinSize nodes, in
// ascending order of their smallest node, and fills t.member, the node ->
// community index column over max(len(assign), nodes) nodes. Scanning
// nodes in ascending order and opening a community at its first node
// yields that order directly, with each member list already sorted.
func (m *Matcher) group(assign Assignment, nodes int) []Community {
	labels := int32(0)
	for _, c := range assign {
		labels = max(labels, c+1)
	}
	size := refill(m.labelSize, int(labels), 0)
	for _, c := range assign {
		if c >= 0 {
			size[c]++
		}
	}
	// index[c] is label c's community index once opened, -1 before.
	index := refill(m.labelIndex, int(labels), -1)
	member := refill(m.member, max(len(assign), nodes), -1)
	m.labelSize, m.labelIndex, m.member = size, index, member

	flat := make([]graph.NodeID, 0, len(assign))
	var cur []Community
	for u, c := range assign {
		if c < 0 || int(size[c]) < m.MinSize {
			continue
		}
		if index[c] < 0 {
			index[c] = int32(len(cur))
			lo := len(flat)
			flat = flat[:lo+int(size[c])]
			cur = append(cur, Community{Nodes: flat[lo:lo:len(flat)]})
		}
		i := index[c]
		cur[i].Nodes = append(cur[i].Nodes, graph.NodeID(u))
		member[u] = i
	}
	return cur
}

// overlap is the number of nodes prev community i and cur community j
// share.
type overlap struct {
	i, j int32
	n    int32
}

// matches is the best-match step between the previous snapshot's
// communities (index i) and the current one's (index j). Every scan
// breaks ties toward the lowest index.
type matches struct {
	bestNewFor []int     // prev i -> most similar cur j, -1 for none
	bestNewSim []float64 // ... and that similarity
	bestOldFor []int     // cur j -> most similar prev i, -1 for none
	bestDest   []int     // prev i -> cur j receiving most of its nodes, -1 for none
	bestOv     []int32   // ... and the nodes they share
	// winner[j] is the prev community whose identity cur j carries, -1
	// for a birth: of the claimants whose best match is j, the most
	// similar one.
	winner []int
}

// bestMatches matches cur against the previous snapshot, which must be
// seeded.
func (m *Matcher) bestMatches(cur []Community) *matches {
	if m.prevMember == nil {
		// Restored from a checkpoint: derive the column from prev.
		m.prevMember = (&SnapshotResult{Communities: m.prev}).Members()
	}
	// Overlaps between prev i and cur j, counted per cur community in a
	// dense per-prev counter and emitted with ascending i. For any fixed i
	// the pairs then come in ascending j and for any fixed j in ascending
	// i — all the best-match scans below need for their lowest-index
	// tie-breaking.
	count := make([]int32, len(m.prev))
	var touched []int32
	var pairs []overlap
	for j, c := range cur {
		for _, u := range c.Nodes {
			if int(u) >= len(m.prevMember) {
				break // nodes ascend; the rest joined after prev
			}
			if i := m.prevMember[u]; i >= 0 {
				if count[i] == 0 {
					touched = append(touched, i)
				}
				count[i]++
			}
		}
		slices.Sort(touched)
		for _, i := range touched {
			pairs = append(pairs, overlap{i: i, j: int32(j), n: count[i]})
			count[i] = 0
		}
		touched = touched[:0]
	}
	// Best matches in both directions, and each prev community's
	// destination: the cur community receiving most of its nodes.
	ms := &matches{
		bestNewFor: refill[int](nil, len(m.prev), -1),
		bestNewSim: make([]float64, len(m.prev)),
		bestOldFor: refill[int](nil, len(cur), -1),
		bestDest:   refill[int](nil, len(m.prev), -1),
		bestOv:     make([]int32, len(m.prev)),
		winner:     refill[int](nil, len(cur), -1),
	}
	bestOldSim := make([]float64, len(cur))
	for _, p := range pairs {
		s := jaccard(m.prev[p.i], cur[p.j], p.n)
		if s > ms.bestNewSim[p.i] {
			ms.bestNewSim[p.i], ms.bestNewFor[p.i] = s, int(p.j)
		}
		if s > bestOldSim[p.j] {
			bestOldSim[p.j], ms.bestOldFor[p.j] = s, int(p.i)
		}
		if p.n > ms.bestOv[p.i] {
			ms.bestOv[p.i], ms.bestDest[p.i] = p.n, int(p.j)
		}
	}
	// Identity assignment: claimants per cur community are the prev
	// communities whose best (Jaccard) match is j; the most similar
	// claimant carries its identity forward, the lowest index on ties.
	for i, j := range ms.bestNewFor {
		if j >= 0 && (ms.winner[j] < 0 || ms.bestNewSim[i] > ms.bestNewSim[ms.winner[j]]) {
			ms.winner[j] = i
		}
	}
	return ms
}

// avgSimilarity is the mean similarity of every cur community to the
// incarnation whose identity it carries, summed in cur order; 0 when
// nothing matched.
func (ms *matches) avgSimilarity() float64 {
	sum, n := 0.0, 0
	for _, i := range ms.winner {
		if i >= 0 {
			sum += ms.bestNewSim[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// jaccard is the Jaccard similarity of communities a and b, which share
// inter nodes.
func jaccard(a, b Community, inter int32) float64 {
	union := len(a.Nodes) + len(b.Nodes) - int(inter)
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// match assigns identities to cur communities and emits events. It returns
// the mean similarity of the matched pairs (Matcher.Advance's), and each
// cur community's similarity to the incarnation whose identity it carries
// (0 for births).
func (t *Tracker) match(day int32, cur []Community) (avgSim float64, selfSim []float64) {
	selfSim = make([]float64, len(cur))
	if !t.seeded {
		for j := range cur {
			cur[j].ID = t.newID(day)
		}
		return 0, selfSim
	}
	ms := t.bestMatches(cur)
	bestNewSim, bestDest, bestOv := ms.bestNewSim, ms.bestDest, ms.bestOv
	// containment is the fraction of prev community i's nodes that ended
	// up in the cur community sharing inter of them. The paper's merge
	// definition requires parents to "contribute most of their nodes" to
	// the destination; below the threshold a vanishing community
	// dissolved, not merged.
	containment := func(i int, inter int32) float64 {
		return float64(inter) / float64(len(t.prev[i].Nodes))
	}
	survived := make([]bool, len(t.prev))
	for j := range cur {
		i := ms.winner[j]
		if i < 0 {
			cur[j].ID = t.newID(day)
			t.events = append(t.events, Event{Day: day, Type: Birth, ID: cur[j].ID})
			continue
		}
		cur[j].ID = t.prev[i].ID
		survived[i] = true
		selfSim[j] = bestNewSim[i]
	}

	// Merge/death classification for prev communities whose identity
	// ended. The paper defines merging by node contribution: a community
	// merged into the cur community that received most of its nodes.
	// majority[j] lists prev communities contributing a majority to j
	// (the union that "became" j) — used for sizes and the strongest-tie
	// check of Fig 6c.
	majority := make([][]int, len(cur))
	for i, j := range bestDest {
		if j >= 0 && containment(i, bestOv[i]) > t.MergeContainment {
			majority[j] = append(majority[j], i)
		}
	}
	for i, p := range t.prev {
		if survived[i] {
			continue
		}
		j := bestDest[i]
		if j < 0 || containment(i, bestOv[i]) <= t.MergeContainment {
			// Dissolved: members scattered. Similarity records the best
			// containment for diagnostics.
			c := 0.0
			if j >= 0 {
				c = containment(i, bestOv[i])
			}
			t.events = append(t.events, Event{Day: day, Type: Death, ID: p.ID, Similarity: c})
			t.history(p.ID).Death = day
			continue
		}
		// Merged into cur[j]. The union it merged with is every other
		// majority contributor to j plus j's identity carrier.
		tieComm := t.strongestTieOf(i)
		inUnion := tieComm == cur[j].ID
		sizeB := 0
		for _, k := range majority[j] {
			inUnion = inUnion || t.prev[k].ID == tieComm
			if k != i && len(t.prev[k].Nodes) > sizeB {
				sizeB = len(t.prev[k].Nodes)
			}
		}
		if sizeB == 0 {
			sizeB = len(cur[j].Nodes)
		}
		t.events = append(t.events, Event{
			Day:              day,
			Type:             Merge,
			ID:               p.ID,
			Other:            cur[j].ID,
			Similarity:       jaccard(p, cur[j], bestOv[i]),
			SizeA:            len(p.Nodes),
			SizeB:            sizeB,
			StrongestTie:     tieComm != 0 && inUnion,
			StrongestTieWith: tieComm,
		})
		h := t.history(p.ID)
		h.Death = day
		h.MergedInto = cur[j].ID
	}

	// Split detection: a prev community that is the best old match of >= 2
	// cur communities. The event records its two largest children (Fig 6a
	// uses the largest two).
	first := make([]int, len(t.prev))  // largest child size
	second := make([]int, len(t.prev)) // second largest
	children := make([]int, len(t.prev))
	for j, i := range ms.bestOldFor {
		if i < 0 {
			continue
		}
		children[i]++
		switch sz := len(cur[j].Nodes); {
		case sz > first[i]:
			first[i], second[i] = sz, first[i]
		case sz > second[i]:
			second[i] = sz
		}
	}
	for i, n := range children {
		if n < 2 {
			continue
		}
		t.events = append(t.events, Event{
			Day:        day,
			Type:       Split,
			ID:         t.prev[i].ID,
			Similarity: bestNewSim[i],
			SizeA:      first[i],
			SizeB:      second[i],
		})
	}

	return ms.avgSimilarity(), selfSim
}

// refill returns n copies of v, in buf when it has the capacity.
func refill[T int | int32](buf []T, n int, v T) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

func (t *Tracker) newID(day int32) int64 {
	t.nextID++
	t.hist = append(t.hist, &History{ID: t.nextID, Birth: day, Death: -1})
	return t.nextID
}

// history returns the record of a tracked id.
func (t *Tracker) history(id int64) *History { return t.hist[id-1] }

// strongestTieOf returns the community with the most edges to prev
// community i, the lowest id among equals, or 0 when i had no
// inter-community edges.
func (t *Tracker) strongestTieOf(i int) int64 {
	var bestComm int64
	var best int64 = -1
	for _, tc := range t.ties[t.tieOff[i]:t.tieOff[i+1]] {
		if tc.n > best {
			best, bestComm = tc.n, tc.id
		}
	}
	return bestComm
}

// recordFeatures appends this snapshot's Features for every live
// community and replaces the tie counts with this snapshot's. Both come
// from one walk over each community's members and their neighbors.
func (t *Tracker) recordFeatures(day int32, g graph.View, cur []Community, selfSim []float64) {
	member := t.member
	t.tieOff = append(t.tieOff[:0], 0)
	t.ties = t.ties[:0]
	count := make([]int64, len(cur))
	var touched []int32
	var nbrs []graph.NodeID
	for j, c := range cur {
		intra := int64(0)
		degSum := int64(0)
		for _, u := range c.Nodes {
			degSum += int64(g.Degree(u))
			nbrs = g.AppendNeighbors(nbrs[:0], u)
			for _, v := range nbrs {
				k := member[v]
				switch {
				case k == int32(j):
					intra++
				case k >= 0:
					if count[k] == 0 {
						touched = append(touched, k)
					}
					count[k]++
				}
			}
		}
		// Ties in ascending id order: the checkpoint writes them so, and
		// the strongest-tie scan breaks equal counts toward the lower id.
		lo := len(t.ties)
		for _, k := range touched {
			t.ties = append(t.ties, tie{id: cur[k].ID, n: count[k]})
			count[k] = 0
		}
		touched = touched[:0]
		slices.SortFunc(t.ties[lo:], func(a, b tie) int { return cmp.Compare(a.id, b.id) })
		t.tieOff = append(t.tieOff, int32(len(t.ties)))

		h := t.history(c.ID)
		h.Death = -1 // it exists now; resurrect if it was marked dead this day
		inRatio := 0.0
		if degSum > 0 {
			inRatio = float64(intra) / float64(degSum) // intra counted twice / degsum
		}
		h.Features = append(h.Features, Features{Day: day, Size: len(c.Nodes), InRatio: inRatio, SelfSim: selfSim[j]})
	}
}

// Events returns all lifecycle events recorded so far.
func (t *Tracker) Events() []Event { return t.events }

// Histories returns the per-identity lifetime records in id order; the
// record of id k is at index k-1.
func (t *Tracker) Histories() []*History { return t.hist }

// History returns the lifetime record of a tracked id, nil for an id the
// tracker never allocated.
func (t *Tracker) History(id int64) *History {
	if id < 1 || id > int64(len(t.hist)) {
		return nil
	}
	return t.hist[id-1]
}

// LastDay returns the most recent snapshot day processed, -1 if none.
func (t *Tracker) LastDay() int32 { return t.lastDay }
