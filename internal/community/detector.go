package community

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/tracking"
)

// chain is what every δ's detection carries from one snapshot to the
// next, whichever detector runs it: the incremental-Louvain seed chain
// and the per-snapshot results (SnapshotStat and the size distributions).
// Detector adds the similarity tracker on top; the δ-sweep's
// sweepDetector adds only a tracking.Matcher for the mean similarity.
type chain struct {
	opt      Options
	cold     bool              // ablation: no incremental seed; see Stage.ColdStart
	wantDist map[int32][]int32 // snapshot day -> requested SizeDistDays it serves
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

// newChain creates a chain with defaulted options; requested
// SizeDistDays that fall between snapshots are snapped to the nearest
// scheduled snapshot day (see Options.SizeDistDays).
func newChain(opt Options) chain {
	opt = opt.withDefaults()
	c := chain{
		opt:      opt,
		wantDist: map[int32][]int32{},
		res:      &Result{Opt: opt, SizeDists: map[int32][]int{}},
	}
	for _, day := range opt.SizeDistDays {
		snap := opt.SnapToSnapshotDay(day)
		c.wantDist[snap] = append(c.wantDist[snap], day)
	}
	return c
}

// due reports whether day is a scheduled snapshot day for this detector
// with a graph of `nodes` nodes.
func (c *chain) due(day int32, nodes int) bool {
	return c.opt.due(day, nodes)
}

// louvain runs the snapshot's incremental Louvain over prep, seeded from
// the previous snapshot's assignment, and makes its result the next seed.
// It latches an error and returns nil then and on every later call.
func (c *chain) louvain(day int32, prep *louvain.Prepared) *louvain.Result {
	if c.err != nil {
		return nil
	}
	// Incremental Louvain: seed with the previous snapshot's assignment.
	// Nodes that joined since are labelled -1, which Louvain treats as one
	// more label: they start out together in a single community.
	var init []int32
	if c.prev != nil && !c.cold {
		init = make([]int32, prep.NumNodes())
		for i := range init {
			if i < len(c.prev.Community) {
				init[i] = c.prev.Community[i]
			} else {
				init[i] = -1
			}
		}
	}
	lr, err := louvain.RunPrepared(prep, louvain.Options{
		Delta:     c.opt.Delta,
		MaxLevels: c.opt.MaxLevels,
		Seed:      c.opt.Seed,
		Init:      init,
		Prev:      c.prev,
	})
	if err != nil {
		c.err = fmt.Errorf("community: louvain at day %d: %w", day, err)
		return nil
	}
	c.prev = lr
	return lr
}

// record appends the snapshot of graph g with Louvain modularity q, the
// tracked communities cur and their mean matched similarity to the
// results: its SnapshotStat, and its size distribution on requested days.
func (c *chain) record(day int32, g graph.View, q float64, cur []tracking.Community, sim float64) {
	stat := SnapshotStat{
		Day:            day,
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		Modularity:     q,
		AvgSimilarity:  sim,
		NumCommunities: len(cur),
	}
	// Top-5 coverage and size distribution.
	sizes := make([]int, 0, len(cur))
	for _, cm := range cur {
		sizes = append(sizes, len(cm.Nodes))
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
	for _, want := range c.wantDist[day] {
		c.res.SizeDists[want] = sizes
	}
	c.res.Stats = append(c.res.Stats, stat)
	c.res.LastDay = day
}

// seal marks the result final, reporting any Louvain error and
// ErrNoSnapshots for traces that never reached snapshot size instead.
func (c *chain) seal() error {
	if c.err != nil {
		return c.err
	}
	if len(c.res.Stats) == 0 {
		return ErrNoSnapshots
	}
	c.done = true
	return nil
}

// Result returns the detector's output after a successful Finish; nil
// before.
func (c *chain) Result() *Result {
	if !c.done {
		return nil
	}
	return c.res
}

// Detector is the per-δ detection layer of the §4 community pipeline: the
// incremental-Louvain seed chain, the similarity tracker, and the result
// accumulation for one δ. It owns no graph — every snapshot is handed in
// as a read-only graph.View; in a run that is one frozen CSR snapshot of
// the shared graph per snapshot day, read by the community Stage's
// detector and all of a sweep's detectors alike (Snapshots). Splitting
// detection from graph maintenance is what lets a K-δ sweep run on one
// graph.
//
// A Detector is single-goroutine: Advance calls must be sequential and in
// snapshot order (day D's Louvain seeds from the previous snapshot's
// assignment). Concurrency across δ values is the caller's job.
type Detector struct {
	chain
	tracker *tracking.Tracker
}

// NewDetector creates a per-δ detector; zero option fields get the
// paper's defaults (Options.withDefaults). Requested
// SizeDistDays that fall between snapshots are snapped to the nearest
// scheduled snapshot day (see Options.SizeDistDays).
func NewDetector(opt Options) *Detector {
	c := newChain(opt)
	return &Detector{chain: c, tracker: tracking.NewTracker(c.opt.MinSize)}
}

// AdvancePrepared runs one snapshot over the graph view g, whose Louvain
// view prep is built once per snapshot day and shared read-only by every
// detector of that day (Snapshots): incremental Louvain seeded from the
// previous snapshot's assignment, tracker matching, and the per-snapshot
// statistics. After a Louvain error the detector latches it and further
// calls are no-ops; the error surfaces from Finish.
func (d *Detector) AdvancePrepared(day int32, g graph.View, prep *louvain.Prepared) {
	lr := d.louvain(day, prep)
	if lr == nil {
		return
	}
	snap := d.tracker.Advance(day, g, tracking.Assignment(lr.Community))
	d.res.Final = snap
	d.record(day, g, lr.Modularity, snap.Communities, snap.AvgSimilarity)
}

// Finish seals the detector: it reports any Louvain error, ErrNoSnapshots
// for traces that never reached snapshot size, and otherwise attaches the
// tracker's event log and histories to the result.
func (d *Detector) Finish() error {
	if err := d.seal(); err != nil {
		return err
	}
	d.res.Events = d.tracker.Events()
	d.res.Histories = d.tracker.Histories()
	d.res.finalMember = d.res.Final.Members()
	return nil
}
