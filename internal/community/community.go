// Package community implements the community-level analyses of §4: the
// snapshot pipeline that runs incremental Louvain and similarity-based
// tracking over a trace (Fig 4), community statistics over time (Fig 5),
// merge/split structure and the SVM merge predictor (Fig 6), and the impact
// of community membership on user activity (Fig 7).
package community

import (
	"errors"
	"sort"

	"repro/internal/graph"
	"repro/internal/tracking"
)

// Options configures the community pipeline.
type Options struct {
	// SnapshotEvery is the cadence, in days, of community snapshots
	// (the paper uses 3).
	SnapshotEvery int32
	// StartDay is the first day eligible for a snapshot (paper: day 20).
	StartDay int32
	// MinNodes is the minimum graph size before snapshots begin
	// (paper: 64 nodes).
	MinNodes int
	// MinSize filters communities smaller than this (paper: 10).
	MinSize int
	// Delta is the Louvain modularity-gain threshold δ (paper: 0.04).
	Delta float64
	// MaxLevels caps Louvain aggregation levels. The default 1 keeps
	// community evolution at node-move granularity between snapshots,
	// which preserves small communities against the resolution limit;
	// aggregation levels would fuse them wholesale.
	MaxLevels int
	// Seed drives Louvain's node-visiting order.
	Seed int64
	// SizeDistDays lists days whose community size distributions should
	// be retained (Figs 4c, 5a). A requested day that falls between
	// snapshots is served by the nearest scheduled snapshot day
	// (SnapToSnapshotDay) and recorded in Result.SizeDists under the
	// requested day; it stays absent only if that snapshot never runs
	// (graph below MinNodes, or trace too short).
	SizeDistDays []int32
}

// withDefaults fills the paper's defaults into zero-valued knobs.
func (o Options) withDefaults() Options {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 3
	}
	if o.MinSize <= 0 {
		o.MinSize = 10
	}
	if o.Delta <= 0 {
		o.Delta = 0.04
	}
	return o
}

// due reports whether day is on the snapshot schedule with a graph large
// enough to detect on. It must be called on defaulted options.
func (o Options) due(day int32, nodes int) bool {
	return day >= o.StartDay && (day-o.StartDay)%o.SnapshotEvery == 0 && nodes >= o.MinNodes
}

// SnapToSnapshotDay returns the scheduled snapshot day nearest to d: days
// at or before StartDay snap to StartDay, and a day exactly halfway
// between two snapshots rounds up. The snapped day is still subject to
// the MinNodes gate and the trace's length — a size distribution is only
// recorded if that snapshot actually runs.
func (o Options) SnapToSnapshotDay(d int32) int32 {
	o = o.withDefaults()
	if d <= o.StartDay {
		return o.StartDay
	}
	k := (d - o.StartDay + o.SnapshotEvery/2) / o.SnapshotEvery
	return o.StartDay + k*o.SnapshotEvery
}

// DefaultOptions mirrors the paper's parameters.
func DefaultOptions() Options {
	return Options{
		SnapshotEvery: 3,
		StartDay:      20,
		MinNodes:      64,
		MinSize:       10,
		Delta:         0.04,
		MaxLevels:     1,
		Seed:          1,
	}
}

// SnapshotStat is one snapshot's community-level measurements.
type SnapshotStat struct {
	Day            int32
	Nodes          int
	Edges          int64
	Modularity     float64
	AvgSimilarity  float64
	NumCommunities int
	// Top5Coverage is the fraction of all nodes inside the five largest
	// tracked communities, and TopCoverage[r] the fraction inside the
	// rank-r largest alone (Fig 5b plots ranks separately).
	Top5Coverage float64
	TopCoverage  [5]float64
}

// Result is the output of the community pipeline.
type Result struct {
	Opt    Options
	Stats  []SnapshotStat
	Events []tracking.Event
	// Histories holds every tracked identity's record in id order.
	Histories []*tracking.History
	// LastDay is the final snapshot day.
	LastDay int32
	// SizeDists maps requested days to the sorted community sizes seen.
	SizeDists map[int32][]int
	// Final holds the last snapshot's tracked communities.
	Final *tracking.SnapshotResult

	// finalMember is Final's node -> community column (see
	// tracking.SnapshotResult.Members), built once by Detector.Finish.
	finalMember []int32
}

// ErrNoSnapshots is returned when the trace never reaches snapshot size.
var ErrNoSnapshots = errors.New("community: no snapshots taken")

// Lifetimes returns the lifetime in days of every tracked community,
// using the final snapshot day for still-alive ones (Fig 5c).
func (r *Result) Lifetimes() []float64 {
	out := make([]float64, 0, len(r.Histories))
	for _, h := range r.Histories {
		out = append(out, float64(h.Lifetime(r.LastDay)))
	}
	sort.Float64s(out)
	return out
}

// SizeRatios returns the size ratios (smaller/larger) of the two largest
// communities involved in every merge and split event (Fig 6a).
func (r *Result) SizeRatios() (mergeRatios, splitRatios []float64) {
	for _, ev := range r.Events {
		if ev.SizeA == 0 || ev.SizeB == 0 {
			continue
		}
		a, b := float64(ev.SizeA), float64(ev.SizeB)
		ratio := a / b
		if a > b {
			ratio = b / a
		}
		switch ev.Type {
		case tracking.Merge:
			mergeRatios = append(mergeRatios, ratio)
		case tracking.Split:
			splitRatios = append(splitRatios, ratio)
		}
	}
	sort.Float64s(mergeRatios)
	sort.Float64s(splitRatios)
	return mergeRatios, splitRatios
}

// StrongestTie summarizes Fig 6c: for every merge event, the day and
// whether the destination was the dying community's strongest tie.
type StrongestTie struct {
	Day          int32
	StrongestTie bool
}

// StrongestTies returns the per-merge strongest-tie outcomes and the
// overall fraction of merges that chose the strongest-tie destination.
func (r *Result) StrongestTies() ([]StrongestTie, float64) {
	var out []StrongestTie
	hits := 0
	for _, ev := range r.Events {
		if ev.Type != tracking.Merge {
			continue
		}
		out = append(out, StrongestTie{Day: ev.Day, StrongestTie: ev.StrongestTie})
		if ev.StrongestTie {
			hits++
		}
	}
	if len(out) == 0 {
		return nil, 0
	}
	return out, float64(hits) / float64(len(out))
}

// CommunityOfNode returns the final tracked community id of node u, or
// false when u is not in any tracked community.
func (r *Result) CommunityOfNode(u graph.NodeID) (int64, bool) {
	if i := r.finalIndex(u); i >= 0 {
		return r.Final.Communities[i].ID, true
	}
	return 0, false
}

// finalIndex returns the index in Final.Communities of node u's
// community, -1 when u is in none or r is nil.
func (r *Result) finalIndex(u graph.NodeID) int {
	if r == nil || u < 0 || int(u) >= len(r.finalMember) {
		return -1
	}
	return int(r.finalMember[u])
}
