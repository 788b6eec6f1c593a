package community

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/tracking"
)

// Detector is the per-δ detection layer of the §4 community pipeline: the
// incremental-Louvain seed chain, the similarity tracker, and the result
// accumulation for one δ. It owns no graph — every snapshot is handed in
// as a read-only graph.View; in a run that is one frozen CSR snapshot of
// the shared graph per snapshot day, read by the community Stage's
// detector and all of a sweep's detectors alike (Snapshots). Splitting
// detection from graph maintenance is what lets a K-δ sweep run on one
// graph: the per-δ state is just the previous assignment plus tracking
// histories.
//
// A Detector is single-goroutine: Advance calls must be sequential and in
// snapshot order (day D's Louvain seeds from the previous snapshot's
// assignment). Concurrency across δ values is the caller's job.
type Detector struct {
	opt      Options
	cold     bool              // ablation: no incremental seed; see Stage.ColdStart
	wantDist map[int32][]int32 // snapshot day -> requested SizeDistDays it serves
	tracker  *tracking.Tracker
	// prev is the previous snapshot's Louvain result: its assignment
	// seeds the next snapshot, and it carries the level-0 tallies that
	// let the next run count only the arcs appended since
	// (louvain.Options.Prev). Restored from a checkpoint it holds the
	// assignment alone, and the next run recounts every arc.
	prev *louvain.Result
	res  *Result
	err  error
	done bool
}

// NewDetector creates a per-δ detector; zero option fields get the
// paper's defaults (Options.withDefaults). Requested
// SizeDistDays that fall between snapshots are snapped to the nearest
// scheduled snapshot day (see Options.SizeDistDays).
func NewDetector(opt Options) *Detector {
	opt = opt.withDefaults()
	d := &Detector{
		opt:      opt,
		wantDist: map[int32][]int32{},
		tracker:  tracking.NewTracker(opt.MinSize),
		res:      &Result{Opt: opt, SizeDists: map[int32][]int{}},
	}
	for _, day := range opt.SizeDistDays {
		snap := opt.SnapToSnapshotDay(day)
		d.wantDist[snap] = append(d.wantDist[snap], day)
	}
	return d
}

// due reports whether day is a scheduled snapshot day for this detector
// with a graph of `nodes` nodes.
func (d *Detector) due(day int32, nodes int) bool {
	return d.opt.due(day, nodes)
}

// AdvancePrepared runs one snapshot over the graph view g, whose Louvain
// view prep is built once per snapshot day and shared read-only by every
// detector of that day (Snapshots): incremental Louvain seeded from the
// previous snapshot's assignment, tracker matching, and the per-snapshot
// statistics. After a Louvain error the detector latches it and further
// calls are no-ops; the error surfaces from Finish.
func (d *Detector) AdvancePrepared(day int32, g graph.View, prep *louvain.Prepared) {
	if d.err != nil {
		return
	}
	n := g.NumNodes()
	// Incremental Louvain: seed with the previous snapshot's assignment.
	// Nodes that joined since are labelled -1, which Louvain treats as one
	// more label: they start out together in a single community.
	var init []int32
	if d.prev != nil && !d.cold {
		init = make([]int32, n)
		for i := range init {
			if i < len(d.prev.Community) {
				init[i] = d.prev.Community[i]
			} else {
				init[i] = -1
			}
		}
	}
	lr, err := louvain.RunPrepared(prep, louvain.Options{
		Delta:     d.opt.Delta,
		MaxLevels: d.opt.MaxLevels,
		Seed:      d.opt.Seed,
		Init:      init,
		Prev:      d.prev,
	})
	if err != nil {
		d.err = fmt.Errorf("community: louvain at day %d: %w", day, err)
		return
	}
	d.prev = lr
	snap := d.tracker.Advance(day, g, tracking.Assignment(lr.Community))
	d.res.Final = snap

	stat := SnapshotStat{
		Day:            day,
		Nodes:          n,
		Edges:          g.NumEdges(),
		Modularity:     lr.Modularity,
		AvgSimilarity:  snap.AvgSimilarity,
		NumCommunities: len(snap.Communities),
	}
	// Top-5 coverage and size distribution.
	sizes := make([]int, 0, len(snap.Communities))
	for _, c := range snap.Communities {
		sizes = append(sizes, len(c.Nodes))
	}
	slices.SortFunc(sizes, func(a, b int) int { return b - a })
	top5 := 0
	for i, sz := range sizes {
		if i >= 5 {
			break
		}
		top5 += sz
		if stat.Nodes > 0 {
			stat.TopCoverage[i] = float64(sz) / float64(stat.Nodes)
		}
	}
	if stat.Nodes > 0 {
		stat.Top5Coverage = float64(top5) / float64(stat.Nodes)
	}
	for _, want := range d.wantDist[day] {
		d.res.SizeDists[want] = sizes
	}
	d.res.Stats = append(d.res.Stats, stat)
	d.res.LastDay = day
}

// Finish seals the detector: it reports any Louvain error, ErrNoSnapshots
// for traces that never reached snapshot size, and otherwise attaches the
// tracker's event log and histories to the result.
func (d *Detector) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.res.Stats) == 0 {
		return ErrNoSnapshots
	}
	d.res.Events = d.tracker.Events()
	d.res.Histories = d.tracker.Histories()
	d.res.finalMember = d.res.Final.Members()
	d.done = true
	return nil
}

// Result returns the detector's output after a successful Finish; nil
// before.
func (d *Detector) Result() *Result {
	if !d.done {
		return nil
	}
	return d.res
}
