package community

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Stage is the §4 community pipeline: the snapshot pipeline driven by
// day-end callbacks from the engine's single shared pass. It is the
// single-δ composition of the pipeline's two layers — the engine's shared
// replay maintains the graph, and on the snapshot schedule a Detector
// (incremental Louvain + similarity tracking) consumes a frozen view of
// it, the one a δ-sweep in the same run reads too (Share). The detector
// runs as a task queued on the run's Pool, off the replay's critical
// path, like one more sweep δ. The δ-sweep's multi-δ composition is
// SweepStage.
type Stage struct {
	det   *Detector
	snaps *Snapshots
	tasks tasks
}

// NewStage creates a streaming community-pipeline stage; zero option
// fields get the paper's defaults. It freezes its own snapshots, and runs
// its detector inline, until Share hands it a run's shared snapshots and
// Pool.
func NewStage(opt Options) *Stage {
	return &Stage{det: NewDetector(opt), snaps: new(Snapshots).join(), tasks: newTasks(nil, 1)}
}

// Share makes the stage take its snapshot views from sn, which the run's
// other community stages share, and queue its detector on pool, the run's
// CPU budget (nil: inline); call it before the pass starts.
func (s *Stage) Share(sn *Snapshots, pool *engine.Pool) {
	s.snaps = sn.join()
	s.tasks = newTasks(pool, 1)
}

// StageName and UsersStageName are the planner registry names of the two
// §4 stages.
const (
	StageName      = "community"
	UsersStageName = "users"
)

// Name implements engine.Stage.
func (s *Stage) Name() string { return StageName }

// ColdStart makes every snapshot's Louvain start from singletons instead
// of the previous snapshot's assignment. It is the baseline of the
// incremental-seed ablation (DESIGN §5), not an analysis setting; call it
// before the pass starts.
func (s *Stage) ColdStart() { s.det.cold = true }

// SetWorkers does nothing: a frozen snapshot's Louvain view aliases its
// CSR, so there is no prepare left to fan out.
//
// Deprecated: kept only because the benchmark harness still builds
// against it.
func (s *Stage) SetWorkers(int) {}

// OnEvent implements engine.Stage; the pipeline is snapshot-driven.
func (s *Stage) OnEvent(_ *trace.State, _ trace.Event) {}

// OnDayEnd runs one snapshot when the day is on the schedule and the graph
// is large enough: it joins the previous snapshot's detector task, takes
// the day's frozen view and queues the detector against it. The work
// stays in OnDayEnd rather than in a Sync, so that a caller forwarding
// only the Stage methods (a plain trace.Hooks replay, a timing wrapper)
// still drives it.
func (s *Stage) OnDayEnd(st *trace.State, day int32) {
	if !s.det.due(day, st.Graph.NumNodes()) {
		return
	}
	s.tasks.join(nil)
	f, prep := s.snaps.take(day, st.Graph)
	s.tasks.queue(func() { s.det.AdvancePrepared(day, f, prep) })
}

// Finish seals the pipeline once the last snapshot's task has joined: it
// reports any Louvain error, ErrNoSnapshots for traces that never reached
// snapshot size, and otherwise attaches the tracker's event log and
// histories to the result.
func (s *Stage) Finish(_ *trace.State) error {
	s.tasks.join(nil)
	return s.det.Finish()
}

// Result returns the pipeline output after a successful Finish; nil before.
func (s *Stage) Result() *Result { return s.det.Result() }

// nodeActivity is UsersStage's per-node accumulator.
type nodeActivity struct {
	lastEdge int32
	hasEdge  bool
}

// nodeGap is one buffered inter-arrival observation; community membership
// of u is only known once the pipeline's final snapshot exists, so gaps are
// classified in Finish.
type nodeGap struct {
	u   graph.NodeID
	gap int32
}

// UsersStage computes the Fig 7 measures: users are classified by the
// final snapshot's tracked communities, and their activity is measured
// over the whole trace. It subscribes to the same pass as the community
// Stage; because users are classified by the *final* snapshot's
// communities, per-node activity is buffered during
// the pass and resolved against the community result in Finish. Degrees and
// intra-community degrees come from the shared state's graph.
type UsersStage struct {
	buckets []SizeBucket
	source  func() *Result
	nodes   []nodeActivity
	gaps    []nodeGap
	impact  *UserImpact
}

// NewUsersStage creates a streaming Fig 7 stage; source provides the
// community pipeline's result at Finish time (subscribe the community Stage
// first and pass its Result method).
func NewUsersStage(buckets []SizeBucket, source func() *Result) *UsersStage {
	if len(buckets) == 0 {
		buckets = DefaultSizeBuckets()
	}
	return &UsersStage{buckets: buckets, source: source}
}

// Name implements engine.Stage.
func (s *UsersStage) Name() string { return UsersStageName }

// OnEvent records per-node edge activity and inter-arrival gaps.
func (s *UsersStage) OnEvent(_ *trace.State, ev trace.Event) {
	if ev.Kind != trace.AddEdge {
		return
	}
	for _, u := range [2]graph.NodeID{ev.U, ev.V} {
		for int32(len(s.nodes)) <= u {
			s.nodes = append(s.nodes, nodeActivity{})
		}
		a := &s.nodes[u]
		if a.hasEdge {
			if gap := ev.Day - a.lastEdge; gap > 0 {
				s.gaps = append(s.gaps, nodeGap{u: u, gap: gap})
			}
		}
		a.lastEdge = ev.Day
		a.hasEdge = true
	}
}

// OnDayEnd implements engine.Stage.
func (s *UsersStage) OnDayEnd(_ *trace.State, _ int32) {}

// Finish classifies the buffered activity by the final snapshot's tracked
// communities and assembles the UserImpact.
func (s *UsersStage) Finish(st *trace.State) error {
	var res *Result
	if s.source != nil {
		res = s.source()
	}
	out := &UserImpact{
		LifetimesBySize: map[string][]float64{},
		InRatioBySize:   map[string][]float64{},
	}
	// Fig 7a: gaps pooled by final community membership.
	for _, g := range s.gaps {
		if res.finalIndex(g.u) >= 0 {
			out.CommunityGaps = append(out.CommunityGaps, float64(g.gap))
		} else {
			out.NonCommunityGaps = append(out.NonCommunityGaps, float64(g.gap))
		}
	}

	bucketName := func(size int) string {
		for _, b := range s.buckets {
			if size >= b.Min && size < b.Max {
				return b.Name
			}
		}
		return ""
	}

	n := st.Graph.NumNodes()
	for int32(len(s.nodes)) < int32(n) {
		s.nodes = append(s.nodes, nodeActivity{})
	}
	var nbrs []graph.NodeID
	for u := 0; u < n; u++ {
		a := &s.nodes[u]
		cu := res.finalIndex(graph.NodeID(u))
		key := "non-community"
		if cu >= 0 {
			key = bucketName(len(res.Final.Communities[cu].Nodes))
			if key == "" {
				continue
			}
		}
		if a.hasEdge {
			out.LifetimesBySize[key] = append(out.LifetimesBySize[key], float64(a.lastEdge-st.JoinDay[u]))
		}
		if cu >= 0 {
			if deg := st.Graph.Degree(graph.NodeID(u)); deg > 0 {
				inDeg := 0
				nbrs = st.Graph.AppendNeighbors(nbrs[:0], graph.NodeID(u))
				for _, v := range nbrs {
					if res.finalIndex(v) == cu {
						inDeg++
					}
				}
				out.InRatioBySize[key] = append(out.InRatioBySize[key], float64(inDeg)/float64(deg))
			}
		}
	}
	for _, v := range out.LifetimesBySize {
		sort.Float64s(v)
	}
	for _, v := range out.InRatioBySize {
		sort.Float64s(v)
	}
	sort.Float64s(out.CommunityGaps)
	sort.Float64s(out.NonCommunityGaps)
	s.impact = out
	return nil
}

// Impact returns the assembled Fig 7 result after Finish; nil before.
func (s *UsersStage) Impact() *UserImpact { return s.impact }
