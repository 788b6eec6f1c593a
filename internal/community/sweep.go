package community

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/louvain"
	"repro/internal/trace"
	"repro/internal/tracking"
)

// SweepStageName is the planner registry name of the δ-sweep stage.
const SweepStageName = "sweep"

// SweepStage runs the Fig 4 δ-sensitivity sweep as a single subscriber to
// the shared engine pass, splitting the community pipeline into its two
// layers. The graph-maintenance layer is the engine's one evolving shared
// graph plus this stage's snapshot schedule: at every scheduled snapshot
// day the stage takes a compact read-only CSR view of the graph
// (graph.Frozen, built once per snapshot day for the whole run — see
// Snapshots). The per-δ detection layer is one sweepDetector per δ — the
// Louvain seed chain plus the similarity of matched communities, all that
// Fig 4 reads — queued on the run's Pool against that shared frozen view.
//
// A K-δ sweep therefore costs exactly one replay pass and one live graph,
// plus K lightweight detector states, instead of the 1+K passes and 1+K
// live graphs of running one community Stage per δ in its own replay
// (TestSweepMatchesPerPass holds their Stats and SizeDists bit-identical).
//
// The stage implements engine.Syncer for the engine's per-snapshot
// barrier: Sync — called at every day boundary, before the next day's
// events mutate the shared graph — joins the previous snapshot's in-flight
// detector tasks (honoring ctx cancellation) before freezing the next
// snapshot. That bounds the live frozen views at one per sweep no matter
// how far the replay runs ahead, and keeps each detector's snapshot
// sequence strictly ordered (day D's Louvain seeds from the previous
// snapshot's assignment).
type SweepStage struct {
	opt    Options
	deltas []float64
	dets   []*sweepDetector
	snaps  *Snapshots
	tasks  tasks
}

// NewSweepStage creates the multi-δ community stage: opt carries the
// shared snapshot schedule and tracking knobs (its Delta is ignored),
// deltas the per-detector Louvain thresholds in result order, and pool the
// run's CPU budget the per-snapshot detector tasks are queued on (nil: a
// budget of one, every task inline). It freezes its own snapshots until
// Share hands it a run's shared ones.
func NewSweepStage(opt Options, deltas []float64, pool *engine.Pool) *SweepStage {
	opt = opt.withDefaults()
	s := &SweepStage{
		opt:    opt,
		deltas: append([]float64(nil), deltas...),
		snaps:  new(Snapshots).join(),
		tasks:  newTasks(pool),
	}
	for _, delta := range s.deltas {
		o := opt
		o.Delta = delta
		s.dets = append(s.dets, newSweepDetector(o))
	}
	return s
}

// Share makes the stage take its snapshot views from sn, which the run's
// other community stages share; call it before the pass starts.
func (s *SweepStage) Share(sn *Snapshots) { s.snaps = sn.join() }

// Name implements engine.Stage.
func (s *SweepStage) Name() string { return SweepStageName }

// OnEvent implements engine.Stage; the sweep is snapshot-driven.
func (s *SweepStage) OnEvent(_ *trace.State, _ trace.Event) {}

// OnDayEnd implements engine.Stage. Snapshot work happens in Sync, which
// the engine calls right after with the run's context, so the barrier wait
// stays cancellable.
func (s *SweepStage) OnDayEnd(_ *trace.State, _ int32) {}

// Sync implements engine.Syncer: on snapshot days it joins the previous
// snapshot's detector tasks, takes the day's frozen view, and queues one
// task per δ against it.
func (s *SweepStage) Sync(ctx context.Context, st *trace.State, day int32) error {
	if len(s.dets) == 0 || !s.opt.due(day, st.Graph.NumNodes()) {
		return nil
	}
	if err := s.tasks.join(ctx); err != nil {
		return err
	}
	// One frozen CSR view for the trackers plus one prepared Louvain view,
	// shared read-only by every δ worker (and by the community stage,
	// which took the same day's view before this barrier).
	frozen, prep := s.snaps.take(day, st.Graph)
	for _, det := range s.dets {
		s.tasks.queue(func() {
			// A cancelled run skips the snapshot: the aborted pass never
			// reads detector results, and joins only count tokens.
			if ctx == nil || ctx.Err() == nil {
				det.advance(day, frozen, prep)
			}
		})
	}
	return nil
}

// Finish implements engine.Stage: it joins the final snapshot's tasks and
// seals every detector, reporting the first per-δ error (ErrNoSnapshots
// when the trace never reached snapshot size, exactly like the community
// Stage).
func (s *SweepStage) Finish(_ *trace.State) error {
	s.tasks.join(nil)
	for i, det := range s.dets {
		if err := det.seal(); err != nil {
			return fmt.Errorf("δ=%v: %w", s.deltas[i], err)
		}
	}
	return nil
}

// Deltas returns the sweep's δ values in result order.
func (s *SweepStage) Deltas() []float64 { return append([]float64(nil), s.deltas...) }

// Result returns the i-th δ's pipeline result after a successful Finish;
// nil before. It holds Stats, SizeDists and LastDay only: the sweep keeps
// no events, histories or final snapshot.
func (s *SweepStage) Result(i int) *Result { return s.dets[i].Result() }

// sweepDetector is one sweep δ's detection: the seed chain plus a
// tracking.Matcher for the mean similarity of matched communities, which
// is all fig4a–c read. Unlike a Detector it assigns no identities and
// records no events, histories, features or ties; its Stats and SizeDists
// equal a Detector's bit for bit.
type sweepDetector struct {
	chain
	matcher *tracking.Matcher
}

func newSweepDetector(opt Options) *sweepDetector {
	c := newChain(opt)
	return &sweepDetector{chain: c, matcher: tracking.NewMatcher(c.opt.MinSize)}
}

// advance runs one snapshot over g and its Louvain view prep, like
// Detector.AdvancePrepared.
func (d *sweepDetector) advance(day int32, g graph.View, prep *louvain.Prepared) {
	lr := d.louvain(day, prep)
	if lr == nil {
		return
	}
	cur, sim := d.matcher.Advance(tracking.Assignment(lr.Community), g.NumNodes())
	d.record(day, g, lr.Modularity, cur, sim)
}
