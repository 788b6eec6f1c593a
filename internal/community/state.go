package community

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/tracking"
)

// Checkpoint codecs for the §4 pipeline. A detector's externalized state
// is exactly what makes a δ's detection resumable: the previous
// snapshot's Louvain assignment (the seed chain), the accumulated
// per-snapshot results, and for a Detector its tracker. Options are
// construction-time knowledge — the planner's config fingerprint guards
// their compatibility — so they are not serialized.

// stageStateV1 versions the §4 stages' checkpoint blobs.
const stageStateV1 = 1

// sweepStateV2 versions the δ-sweep's blob. Version 1 held a full
// Detector per δ, tracker included; version 2 holds each sweepDetector's
// seed chain and results only, and a version-1 blob is refused.
const sweepStateV2 = 2

// saveSeed writes the seed chain: the previous snapshot's assignment.
func (c *chain) saveSeed(e *checkpoint.Encoder) {
	var prevComm []int32
	if c.prev != nil {
		prevComm = c.prev.Community
	}
	e.Bool(c.prev != nil)
	e.I32s(prevComm)
}

// loadSeed restores what saveSeed wrote.
func (c *chain) loadSeed(dec *checkpoint.Decoder) {
	hadPrev := dec.Bool()
	if comm := dec.I32s(); hadPrev && comm != nil {
		// Only the assignment is saved: the first run after a restore
		// recounts its level-0 tallies.
		c.prev = &louvain.Result{Community: comm}
	}
}

// saveResults writes the accumulated per-snapshot results.
func (c *chain) saveResults(e *checkpoint.Encoder) {
	e.U64(uint64(len(c.res.Stats)))
	for _, s := range c.res.Stats {
		e.I32(s.Day)
		e.Int(s.Nodes)
		e.I64(s.Edges)
		e.F64(s.Modularity)
		e.F64(s.AvgSimilarity)
		e.Int(s.NumCommunities)
		e.F64(s.Top5Coverage)
		for _, c := range s.TopCoverage {
			e.F64(c)
		}
	}
	e.U64(uint64(len(c.res.SizeDists)))
	for _, day := range checkpoint.SortedKeys(c.res.SizeDists) {
		e.I32(day)
		sizes := c.res.SizeDists[day]
		e.U64(uint64(len(sizes)))
		for _, s := range sizes {
			e.Int(s)
		}
	}
	e.I32(c.res.LastDay)
}

// loadResults restores what saveResults wrote.
func (c *chain) loadResults(dec *checkpoint.Decoder) {
	n := dec.Len()
	c.res.Stats = make([]SnapshotStat, 0, min(n, 1<<16))
	for i := 0; i < n && dec.Err() == nil; i++ {
		s := SnapshotStat{
			Day: dec.I32(), Nodes: dec.Int(), Edges: dec.I64(),
			Modularity: dec.F64(), AvgSimilarity: dec.F64(),
			NumCommunities: dec.Int(), Top5Coverage: dec.F64(),
		}
		for j := range s.TopCoverage {
			s.TopCoverage[j] = dec.F64()
		}
		c.res.Stats = append(c.res.Stats, s)
	}
	n = dec.Len()
	c.res.SizeDists = make(map[int32][]int, min(n, 1<<16))
	for i := 0; i < n && dec.Err() == nil; i++ {
		day := dec.I32()
		sn := dec.Len()
		sizes := make([]int, 0, min(sn, 1<<16))
		for j := 0; j < sn && dec.Err() == nil; j++ {
			sizes = append(sizes, dec.Int())
		}
		c.res.SizeDists[day] = sizes
	}
	c.res.LastDay = dec.I32()
}

// saveState serializes the detector through e.
func (d *Detector) saveState(e *checkpoint.Encoder) error {
	if d.err != nil {
		// A latched Louvain failure is not a resumable state.
		return d.err
	}
	d.saveSeed(e)
	d.tracker.SaveState(e)
	d.saveResults(e)
	e.Bool(d.res.Final != nil)
	if f := d.res.Final; f != nil {
		e.I32(f.Day)
		e.F64(f.AvgSimilarity)
		// Written in ascending id order, the layout existing checkpoints
		// use.
		byID := slices.Clone(f.Communities)
		slices.SortFunc(byID, func(a, b tracking.Community) int { return cmp.Compare(a.ID, b.ID) })
		e.U64(uint64(len(byID)))
		for _, c := range byID {
			e.I64(c.ID)
			e.U64(uint64(len(c.Nodes)))
			for _, u := range c.Nodes {
				e.I32(u)
			}
		}
	}
	return e.Err()
}

// loadState restores a freshly constructed detector from dec.
func (d *Detector) loadState(dec *checkpoint.Decoder) error {
	d.loadSeed(dec)
	if err := d.tracker.LoadState(dec); err != nil {
		return err
	}
	d.loadResults(dec)
	if dec.Bool() {
		f := &tracking.SnapshotResult{Day: dec.I32(), AvgSimilarity: dec.F64()}
		cn := dec.Len()
		for i := 0; i < cn && dec.Err() == nil; i++ {
			c := tracking.Community{ID: dec.I64()}
			nn := dec.Len()
			c.Nodes = make([]graph.NodeID, 0, min(nn, 1<<16))
			for j := 0; j < nn && dec.Err() == nil; j++ {
				u := dec.I32()
				if u < 0 || (j > 0 && u <= c.Nodes[j-1]) {
					return fmt.Errorf("%w: community %d nodes not ascending", checkpoint.ErrCorrupt, c.ID)
				}
				c.Nodes = append(c.Nodes, u)
			}
			if nn == 0 && dec.Err() == nil {
				return fmt.Errorf("%w: community %d is empty", checkpoint.ErrCorrupt, c.ID)
			}
			f.Communities = append(f.Communities, c)
		}
		if err := dec.Err(); err != nil {
			return err
		}
		// Back to the snapshot's order, by smallest node.
		slices.SortFunc(f.Communities, func(a, b tracking.Community) int { return cmp.Compare(a.Nodes[0], b.Nodes[0]) })
		d.res.Final = f
	}
	return dec.Err()
}

// saveState serializes the sweep detector through e: its seed chain and
// results.
func (d *sweepDetector) saveState(e *checkpoint.Encoder) error {
	if d.err != nil {
		return d.err
	}
	d.saveSeed(e)
	d.saveResults(e)
	return e.Err()
}

// loadState restores a freshly constructed sweep detector from dec. The
// previous snapshot's communities are exactly the grouping of its Louvain
// assignment, so they are rebuilt from it rather than stored. Grouping
// indexes a slice by label, so a label outside [0, n) is
// checkpoint.ErrCorrupt.
func (d *sweepDetector) loadState(dec *checkpoint.Decoder) error {
	d.loadSeed(dec)
	if d.prev != nil {
		comm := d.prev.Community
		for u, c := range comm {
			if c < 0 || int(c) >= len(comm) {
				return fmt.Errorf("%w: node %d has Louvain label %d of %d nodes", checkpoint.ErrCorrupt, u, c, len(comm))
			}
		}
		d.matcher.Advance(tracking.Assignment(comm), len(comm))
	}
	d.loadResults(dec)
	return dec.Err()
}

// SaveState implements engine.Checkpointer for the single-δ stage. It
// first joins the detector task still in flight from the current
// snapshot, so the serialized state is quiescent.
func (s *Stage) SaveState(w io.Writer) error {
	s.tasks.join(nil)
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	if err := s.det.saveState(e); err != nil {
		return err
	}
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *Stage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("community: checkpoint state version %d", v)
	}
	return s.det.loadState(d)
}

// SaveState implements engine.Checkpointer for the Fig 7 stage: the
// patch against the empty mark, a fresh stage's. It holds the rows of
// the users with an edge and the buffered inter-arrival gaps.
func (s *UsersStage) SaveState(w io.Writer) error {
	return s.SavePatch(w, usersMark{day: -1})
}

// LoadState implements engine.Checkpointer: it applies the blob to a
// fresh stage.
func (s *UsersStage) LoadState(data []byte) error {
	*s = *NewUsersStage(s.buckets, s.source)
	return s.LoadPatch(data)
}

// usersPatchV2 versions the Fig 7 stage's blobs: its whole state is its
// patch against the empty mark, so the two share one layout. Version 1
// wrote the whole state as a dense row dump; its blobs and patches are
// refused.
const usersPatchV2 = 2

// usersMark is the state a save captured: the last edge day any user
// saw and the columns' lengths. Every later edge has a later day, so
// the users active since the mark are those whose last edge is past
// day.
type usersMark struct {
	day         int32
	nodes, gaps int
}

// Mark implements engine.Patcher.
func (s *UsersStage) Mark() engine.Mark {
	m := usersMark{day: -1, nodes: len(s.nodes), gaps: len(s.gaps)}
	for _, a := range s.nodes {
		if a.hasEdge {
			m.day = max(m.day, a.lastEdge)
		}
	}
	return m
}

// SavePatch implements engine.Patcher: the mark it extends, the rows of
// the users with an edge since, and the gaps appended since. The node
// column's new length is implied: the column grows only to cover an
// edge's endpoints, so its last row is that of a user active since.
func (s *UsersStage) SavePatch(w io.Writer, since engine.Mark) error {
	m, ok := since.(usersMark)
	if !ok || m.nodes > len(s.nodes) || m.gaps > len(s.gaps) {
		return fmt.Errorf("users: patch against a mark this stage did not make")
	}
	active := func(a nodeActivity) bool { return a.hasEdge && a.lastEdge > m.day }
	e := checkpoint.NewEncoder(w)
	e.U64(usersPatchV2)
	e.I32(m.day)
	e.Int(m.nodes)
	e.Int(m.gaps)
	n := 0
	for _, a := range s.nodes {
		if active(a) {
			n++
		}
	}
	e.U64(uint64(n))
	for u, a := range s.nodes {
		if active(a) {
			e.I32(int32(u))
			e.I32(a.lastEdge)
		}
	}
	e.U64(uint64(len(s.gaps) - m.gaps))
	for _, g := range s.gaps[m.gaps:] {
		e.I32(g.u)
		e.I32(g.gap)
	}
	return e.Flush()
}

// LoadPatch implements engine.Patcher.
func (s *UsersStage) LoadPatch(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != usersPatchV2 {
		return fmt.Errorf("users: checkpoint patch version %d", v)
	}
	m := usersMark{day: d.I32(), nodes: d.Int(), gaps: d.Int()}
	if err := d.Err(); err != nil {
		return err
	}
	if have := s.Mark(); m != have {
		return fmt.Errorf("users: patch against %+v, stage is at %+v", m, have)
	}
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		u, day := d.I32(), d.I32()
		if u < 0 || day <= m.day {
			return fmt.Errorf("users: checkpoint patch row %d at day %d", u, day)
		}
		for int32(len(s.nodes)) <= u {
			s.nodes = append(s.nodes, nodeActivity{})
		}
		s.nodes[u] = nodeActivity{lastEdge: day, hasEdge: true}
	}
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		s.gaps = append(s.gaps, nodeGap{u: d.I32(), gap: d.I32()})
	}
	return d.Err()
}

// SaveState implements engine.Checkpointer for the δ-sweep. It runs at
// the engine's Sync barrier, or beside Finish at the end of the run, so
// it first joins the detector tasks still in flight from the current
// snapshot — the per-δ states must be quiescent before serialization.
// Each detector's state is recorded under its δ so a mismatched sweep
// grid fails loudly.
func (s *SweepStage) SaveState(w io.Writer) error {
	s.tasks.join(nil)
	e := checkpoint.NewEncoder(w)
	e.U64(sweepStateV2)
	e.U64(uint64(len(s.dets)))
	for i, det := range s.dets {
		e.F64(s.deltas[i])
		if err := det.saveState(e); err != nil {
			return fmt.Errorf("δ=%v: %w", s.deltas[i], err)
		}
	}
	return e.Flush()
}

// LoadState implements engine.Checkpointer. It refuses a version-1
// blob, whose full per-δ trackers this stage no longer keeps; a resume
// then falls back to an older checkpoint or to day 0.
func (s *SweepStage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	switch v := d.U64(); {
	case d.Err() != nil:
	case v == stageStateV1:
		return fmt.Errorf("sweep: checkpoint state version 1 predates the stats-only sweep detectors (version %d)", sweepStateV2)
	case v != sweepStateV2:
		return fmt.Errorf("sweep: checkpoint state version %d", v)
	}
	if n := d.Len(); d.Err() == nil && n != len(s.dets) {
		return fmt.Errorf("sweep: checkpoint has %d detectors, stage %d", n, len(s.dets))
	}
	for i, det := range s.dets {
		if delta := d.F64(); d.Err() == nil && delta != s.deltas[i] {
			return fmt.Errorf("sweep: checkpoint δ[%d]=%v, stage δ=%v", i, delta, s.deltas[i])
		}
		if err := det.loadState(d); err != nil {
			return fmt.Errorf("δ=%v: %w", s.deltas[i], err)
		}
	}
	return d.Err()
}
