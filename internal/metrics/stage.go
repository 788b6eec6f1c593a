package metrics

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// GrowthDay is one day of the paper's Fig 1a/1b growth series.
type GrowthDay struct {
	Day        int32
	NodesAdded int64
	EdgesAdded int64
	Nodes      int64 // cumulative
	Edges      int64 // cumulative
	// NodeGrowthPct/EdgeGrowthPct are the relative daily growth
	// percentages of Fig 1b.
	NodeGrowthPct float64
	EdgeGrowthPct float64
}

// StageOptions parameterizes the streaming Fig 1 stage.
type StageOptions struct {
	// MetricsEvery is the cadence (days) of degree/clustering/
	// assortativity measurements; PathEvery of sampled path length.
	MetricsEvery int32
	PathEvery    int32
	// PathSources is the number of BFS sources for path length.
	PathSources int
	// ClusteringSamples is the node sample size for average clustering.
	ClusteringSamples int
	// Seed drives the sampled estimators.
	Seed int64
	// Pool is the run's CPU budget, which the path-length estimator's
	// lane batches borrow from (nil runs them sequentially). A throughput
	// knob only: the estimate is bit-identical at any budget (see
	// PathSampler), so it is deliberately not part of the checkpoint
	// config fingerprint.
	Pool *engine.Pool
	// Workers is ignored.
	//
	// Deprecated: the lane batches borrow from Pool. Kept only because
	// the benchmark harness still builds against it.
	Workers int
}

// Stage computes the Fig 1 growth and snapshot-metric series from a single
// replay pass; it subscribes to the engine alongside the other analyses.
type Stage struct {
	opt StageOptions
	src *stats.Source
	rng *rand.Rand

	prevNodes, prevEdges   int64
	addedNodes, addedEdges int64

	paths      PathSampler
	clustering ClusteringSampler

	// Growth and Snapshots accumulate the Fig 1a/1b and Fig 1c–1f series.
	Growth    []GrowthDay
	Snapshots []Snapshot
}

// NewStage creates a streaming Fig 1 stage; zero-valued cadences and
// sample sizes get the paper's scaled defaults.
func NewStage(opt StageOptions) *Stage {
	if opt.MetricsEvery <= 0 {
		opt.MetricsEvery = 3
	}
	if opt.PathEvery <= 0 {
		opt.PathEvery = 9
	}
	if opt.PathSources <= 0 {
		opt.PathSources = 100
	}
	if opt.ClusteringSamples <= 0 {
		opt.ClusteringSamples = 1000
	}
	src := stats.NewSource(opt.Seed)
	return &Stage{opt: opt, src: src, rng: rand.New(src), paths: PathSampler{Pool: opt.Pool}}
}

// StageName is the stage's planner registry name.
const StageName = "metrics"

// Name implements engine.Stage.
func (s *Stage) Name() string { return StageName }

// OnEvent counts the day's node and edge arrivals.
func (s *Stage) OnEvent(_ *trace.State, ev trace.Event) {
	switch ev.Kind {
	case trace.AddNode:
		s.addedNodes++
	case trace.AddEdge:
		s.addedEdges++
	}
}

// OnDayEnd closes the day's growth row and, on the metrics cadence, takes a
// full metric snapshot of the live graph.
func (s *Stage) OnDayEnd(st *trace.State, day int32) {
	g := st.Graph
	nodes, edges := int64(g.NumNodes()), g.NumEdges()
	gd := GrowthDay{
		Day:        day,
		NodesAdded: s.addedNodes,
		EdgesAdded: s.addedEdges,
		Nodes:      nodes,
		Edges:      edges,
	}
	if s.prevNodes > 0 {
		gd.NodeGrowthPct = 100 * float64(s.addedNodes) / float64(s.prevNodes)
	}
	if s.prevEdges > 0 {
		gd.EdgeGrowthPct = 100 * float64(s.addedEdges) / float64(s.prevEdges)
	}
	s.Growth = append(s.Growth, gd)
	s.prevNodes, s.prevEdges = nodes, edges
	s.addedNodes, s.addedEdges = 0, 0

	if day%s.opt.MetricsEvery == 0 && nodes > 0 {
		snap := Snapshot{
			Day:        day,
			Nodes:      nodes,
			Edges:      edges,
			AvgDegree:  AverageDegree(g),
			Clustering: s.clustering.Sample(g, s.opt.ClusteringSamples, s.rng),
			Assort:     Assortativity(g),
		}
		if day%s.opt.PathEvery == 0 {
			if pl, err := s.paths.Sample(g, s.opt.PathSources, s.rng); err == nil {
				snap.PathLength = pl
			}
		}
		s.Snapshots = append(s.Snapshots, snap)
	}
}

// Finish implements engine.Stage; the series are complete after the pass.
func (s *Stage) Finish(st *trace.State) error { return nil }

// stageStateV1 versions the stage's checkpoint blob.
const stageStateV1 = 1

// SaveState implements engine.Checkpointer: the growth/snapshot series
// accumulated so far, the day-to-day counters, and the sampler RNG's
// position.
func (s *Stage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	e.I64(s.prevNodes)
	e.I64(s.prevEdges)
	e.I64(s.addedNodes)
	e.I64(s.addedEdges)
	e.U64(uint64(len(s.Growth)))
	for _, g := range s.Growth {
		e.I32(g.Day)
		e.I64(g.NodesAdded)
		e.I64(g.EdgesAdded)
		e.I64(g.Nodes)
		e.I64(g.Edges)
		e.F64(g.NodeGrowthPct)
		e.F64(g.EdgeGrowthPct)
	}
	e.U64(uint64(len(s.Snapshots)))
	for _, m := range s.Snapshots {
		e.I32(m.Day)
		e.I64(m.Nodes)
		e.I64(m.Edges)
		e.F64(m.AvgDegree)
		e.F64(m.PathLength)
		e.F64(m.Clustering)
		e.F64(m.Assort)
	}
	e.I64(s.src.Draws())
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *Stage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("metrics: checkpoint state version %d", v)
	}
	s.prevNodes = d.I64()
	s.prevEdges = d.I64()
	s.addedNodes = d.I64()
	s.addedEdges = d.I64()
	n := d.Len()
	s.Growth = make([]GrowthDay, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Growth = append(s.Growth, GrowthDay{
			Day: d.I32(), NodesAdded: d.I64(), EdgesAdded: d.I64(),
			Nodes: d.I64(), Edges: d.I64(),
			NodeGrowthPct: d.F64(), EdgeGrowthPct: d.F64(),
		})
	}
	n = d.Len()
	s.Snapshots = make([]Snapshot, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Snapshots = append(s.Snapshots, Snapshot{
			Day: d.I32(), Nodes: d.I64(), Edges: d.I64(),
			AvgDegree: d.F64(), PathLength: d.F64(), Clustering: d.F64(), Assort: d.F64(),
		})
	}
	draws := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	s.src.Restore(s.opt.Seed, draws)
	return nil
}
