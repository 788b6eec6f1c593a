package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/svm"
	"repro/internal/trace"
)

// dayTask is one stage's work for one day: from its first OnEvent (or its
// OnDayEnd, on a day without events) to the end of its OnDayEnd, with mid
// at the OnDayEnd entry.
type dayTask struct {
	day             int32
	start, mid, end time.Time
}

// stageClock times an Overlappable stage at day granularity. At more than
// one worker the engine replays a stage's whole day batch on one goroutine
// and then calls OnDayEnd, so stamping the first event of each day and the
// OnDayEnd entry and exit times the day task with three clock reads
// instead of one per event. The engine calls one stage's callbacks from
// one goroutine at a time, so the fields need no lock.
type stageClock struct {
	engine.Stage
	inDay                  bool
	start                  time.Time
	tasks                  []dayTask
	finishStart, finishEnd time.Time
}

// OverlapSafe keeps the wrapped stage eligible for the per-day fan-out.
func (c *stageClock) OverlapSafe() {}

func (c *stageClock) OnEvent(st *trace.State, ev trace.Event) {
	if !c.inDay {
		c.inDay = true
		c.start = time.Now()
	}
	c.Stage.OnEvent(st, ev)
}

func (c *stageClock) OnDayEnd(st *trace.State, day int32) {
	mid := time.Now()
	if !c.inDay {
		c.start = mid
	}
	c.Stage.OnDayEnd(st, day)
	c.tasks = append(c.tasks, dayTask{day: day, start: c.start, mid: mid, end: time.Now()})
	c.inDay = false
}

func (c *stageClock) Finish(st *trace.State) error {
	c.finishStart = time.Now()
	err := c.Stage.Finish(st)
	c.finishEnd = time.Now()
	return err
}

// sweepClock times the δ-sweep's Sync barrier and Finish, keeping the
// stage an engine.Syncer.
type sweepClock struct {
	*community.SweepStage
	syncs                  []dayTask
	finishStart, finishEnd time.Time
}

func (c *sweepClock) Sync(ctx context.Context, st *trace.State, day int32) error {
	t0 := time.Now()
	err := c.SweepStage.Sync(ctx, st, day)
	c.syncs = append(c.syncs, dayTask{day: day, start: t0, mid: t0, end: time.Now()})
	return err
}

func (c *sweepClock) Finish(st *trace.State) error {
	c.finishStart = time.Now()
	err := c.SweepStage.Finish(st)
	c.finishEnd = time.Now()
	return err
}

// tracedRun is one analysis run built from the stages' public
// constructors the way core.RunPlan builds it, with every stage wrapped
// in a clock.
type tracedRun struct {
	res              *core.Result
	start, end       time.Time
	stages           []*stageClock
	sweep            *sweepClock
	svmStart, svmEnd time.Time
}

// runInstrumented runs plan over src with timed stages. Its outputs must
// equal core.RunPlan's for the same inputs (see sameOutputs).
func runInstrumented(ctx context.Context, src trace.MetaSource, cfg core.Config, plan *core.FigurePlan) (*tracedRun, error) {
	meta := src.Meta()
	r := &tracedRun{res: &core.Result{Meta: meta, ResumedFromDay: -1}}
	pool := engine.NewPool(cfg.Workers)
	eng := engine.New()
	eng.Hint(int(meta.Nodes), int(meta.Edges))
	eng.SetWorkers(pool.Workers())
	add := func(s engine.Stage) {
		c := &stageClock{Stage: s}
		r.stages = append(r.stages, c)
		eng.Subscribe(c)
	}
	var (
		ms *metrics.Stage
		ev *evolution.Stage
		al *evolution.AlphaStage
		cm *community.Stage
		us *community.UsersStage
		om *osnmerge.Stage
	)
	for _, name := range plan.Stages() {
		switch name {
		case metrics.StageName:
			ms = metrics.NewStage(metrics.StageOptions{
				MetricsEvery:      cfg.MetricsEvery,
				PathEvery:         cfg.PathEvery,
				PathSources:       cfg.PathSources,
				ClusteringSamples: cfg.ClusteringSamples,
				Seed:              cfg.Seed,
				Workers:           pool.Workers(),
			})
			add(ms)
		case evolution.StageName:
			ev = evolution.NewStage(cfg.Evolution)
			add(ev)
		case evolution.AlphaStageName:
			al = evolution.NewAlphaStage(cfg.Alpha)
			add(al)
		case community.StageName:
			cm = community.NewStage(cfg.Community)
			cm.SetWorkers(pool.Workers())
			add(cm)
		case community.UsersStageName:
			us = community.NewUsersStage(nil, cm.Result)
			add(us)
		case community.SweepStageName:
			if len(cfg.DeltaSweep) > 0 {
				r.sweep = &sweepClock{SweepStage: community.NewSweepStage(cfg.Community, cfg.DeltaSweep, pool)}
				eng.Subscribe(r.sweep)
			}
		case osnmerge.StageName:
			if meta.MergeDay >= 0 {
				om = osnmerge.NewStage(meta.MergeDay, cfg.Merge)
				add(om)
			}
		}
	}

	r.start = time.Now()
	_, err := eng.RunSourceContext(ctx, src)
	if err == nil && plan.Has("svm") {
		r.svmStart = time.Now()
		ds := community.BuildMergeDataset(cm.Result(), meta.MergeDay)
		bins, overall, err := community.EvaluateMergePrediction(ds, 10, svm.Options{Seed: cfg.Seed, ClassWeighted: true})
		if err == nil {
			r.res.MergeBins = bins
			r.res.MergeOverall = core.MergeAccuracy{
				PosAccuracy: overall.PosAccuracy,
				NegAccuracy: overall.NegAccuracy,
				Accuracy:    overall.Accuracy,
				N:           overall.N,
			}
		}
		r.svmEnd = time.Now()
	}
	if werr := pool.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("instrumented run: %w", err)
	}

	res := r.res
	if ms != nil {
		res.Growth, res.Metrics = ms.Growth, ms.Snapshots
	}
	if ev != nil {
		res.Evolution = ev.Result()
	}
	if al != nil {
		res.Alpha = al.Result()
	}
	if cm != nil {
		res.Community = cm.Result()
	}
	if us != nil {
		res.Users = us.Impact()
	}
	if r.sweep != nil {
		dist := cfg.Community.SizeDistDays
		for i, d := range cfg.DeltaSweep {
			dr := r.sweep.Result(i)
			if dr == nil {
				continue
			}
			run := core.DeltaRun{Delta: d, Stats: dr.Stats}
			if len(dist) > 0 {
				run.SizeDist = dr.SizeDists[dist[len(dist)-1]]
			}
			res.DeltaSweep = append(res.DeltaSweep, run)
		}
	}
	if om != nil {
		res.Merge = om.Result()
	}
	r.end = time.Now()
	return r, nil
}

// passEnd is when the replay pass ended: the first stage's Finish.
func (r *tracedRun) passEnd() time.Time {
	end := r.end
	for _, c := range r.stages {
		if c.finishStart.Before(end) {
			end = c.finishStart
		}
	}
	if r.sweep != nil && r.sweep.finishStart.Before(end) {
		end = r.sweep.finishStart
	}
	return end
}

// layers returns the run's engine and stage metrics; stages outside the
// plan report none.
func (r *tracedRun) layers() map[string]float64 {
	m := map[string]float64{}
	critical := map[int32]time.Duration{}
	var total time.Duration
	for _, c := range r.stages {
		var ev, de time.Duration
		for _, t := range c.tasks {
			ev += t.mid.Sub(t.start)
			de += t.end.Sub(t.mid)
			d := t.end.Sub(t.start)
			total += d
			critical[t.day] = max(critical[t.day], d)
		}
		m["stage."+c.Name()+".event_s"] = seconds(ev)
		m["stage."+c.Name()+".dayend_s"] = seconds(de)
		m["stage."+c.Name()+".finish_s"] = seconds(c.finishEnd.Sub(c.finishStart))
	}
	var crit, sync time.Duration
	for _, d := range critical {
		crit += d
	}
	if r.sweep != nil {
		for _, t := range r.sweep.syncs {
			sync += t.end.Sub(t.start)
		}
		m["stage.sweep.sync_s"] = seconds(sync)
		m["stage.sweep.finish_s"] = seconds(r.sweep.finishEnd.Sub(r.sweep.finishStart))
		if len(r.res.DeltaSweep) > 0 {
			m["stage.sweep.snapshots"] = float64(len(r.res.DeltaSweep[0].Stats))
		}
	}
	replay := r.passEnd().Sub(r.start)
	m["engine.replay_s"] = seconds(replay)
	m["engine.stage_critical_s"] = seconds(crit)
	m["engine.overlap_ratio"] = ratio(float64(total), float64(crit))
	m["engine.unattributed_s"] = seconds(replay - crit - sync)
	m["core.svm_s"] = seconds(r.svmEnd.Sub(r.svmStart))
	m["core.run_s"] = seconds(r.end.Sub(r.start))
	return m
}

// record adds the run's spans under parent: one span per day (from the
// previous day's end to the last stage task or Sync of the day), the
// stage day tasks and the Sync barrier under it, then each Finish and the
// SVM evaluation.
func (r *tracedRun) record(l *spanLog, parent int) {
	type namedTask struct {
		name string
		task dayTask
	}
	type dayWork struct {
		end   time.Time
		tasks []namedTask
	}
	days := map[int32]*dayWork{}
	note := func(name string, t dayTask) {
		d := days[t.day]
		if d == nil {
			d = &dayWork{}
			days[t.day] = d
		}
		if t.end.After(d.end) {
			d.end = t.end
		}
		d.tasks = append(d.tasks, namedTask{name, t})
	}
	for _, c := range r.stages {
		for _, t := range c.tasks {
			note(c.Name(), t)
		}
	}
	if r.sweep != nil {
		for _, t := range r.sweep.syncs {
			if t.end.Sub(t.start) > 0 {
				note("sweep.sync", t)
			}
		}
	}
	order := make([]int32, 0, len(days))
	for d := range days {
		order = append(order, d)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	prev := r.start
	for _, day := range order {
		d := days[day]
		id := l.add(parent, "day", prev, d.end, map[string]any{"day": day})
		for _, t := range d.tasks {
			l.add(id, t.name, t.task.start, t.task.end, nil)
		}
		prev = d.end
	}
	for _, c := range r.stages {
		l.add(parent, c.Name()+".finish", c.finishStart, c.finishEnd, nil)
	}
	if r.sweep != nil {
		l.add(parent, "sweep.finish", r.sweep.finishStart, r.sweep.finishEnd, nil)
	}
	if !r.svmStart.IsZero() {
		l.add(parent, "svm", r.svmStart, r.svmEnd, nil)
	}
}

// sameOutputs reports the first stage output on which two results differ.
// The traced run must be the same program as the untraced one: every
// stage output has to match field for field.
func sameOutputs(a, b *core.Result) error {
	fields := []struct {
		name string
		x, y any
	}{
		{"Growth", a.Growth, b.Growth},
		{"Metrics", a.Metrics, b.Metrics},
		{"Evolution", a.Evolution, b.Evolution},
		{"Alpha", a.Alpha, b.Alpha},
		{"Community", a.Community, b.Community},
		{"Users", a.Users, b.Users},
		{"Merge", a.Merge, b.Merge},
		{"MergeBins", a.MergeBins, b.MergeBins},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.x, f.y) {
			return fmt.Errorf("traced and untraced runs differ in %s", f.name)
		}
	}
	if len(a.DeltaSweep) != len(b.DeltaSweep) {
		return fmt.Errorf("traced and untraced runs differ in DeltaSweep length: %d vs %d", len(a.DeltaSweep), len(b.DeltaSweep))
	}
	for i := range a.DeltaSweep {
		if !reflect.DeepEqual(a.DeltaSweep[i].Stats, b.DeltaSweep[i].Stats) {
			return fmt.Errorf("traced and untraced runs differ in DeltaSweep[%d].Stats", i)
		}
	}
	return nil
}

// span is one timed interval of a traced run. Times are microseconds
// since the run's spans began; Parent 0 is the root.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_us"`
	End    float64        `json:"end_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id. A nil log records nothing.
func (l *spanLog) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: micros(start.Sub(l.t0)), End: micros(end.Sub(l.t0)),
		Attrs: attrs,
	})
	return id
}

// write saves the spans as JSON to path.
func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
