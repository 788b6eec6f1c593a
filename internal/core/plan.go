package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/community"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/storage"
	"repro/internal/trace"
)

// StageSpec is one analysis stage's registration with the planner: its
// name, the figure panels it produces, and the stages whose results its
// Finish step reads (the planner pulls dependencies in automatically, so
// requesting fig7a also runs the community pipeline the users stage
// classifies against). The wiring — how the stage subscribes to the shared
// pass, fans out on the worker pool, and harvests its result — is attached
// by the registry in this package; external callers see the descriptive
// fields only, via Registry and StageFor.
type StageSpec struct {
	// Name is the stage's registry key (e.g. "metrics", "sweep").
	Name string
	// Deps names stages that must also run because this stage reads their
	// results at Finish time (community → users/svm).
	Deps []string
	// Figures lists the panel ids this stage produces, in paper order.
	Figures []string

	// subscribe instantiates the stage and subscribes it to the shared
	// engine pass; the one stage that only runs after it (svm) leaves it
	// nil. The δ-sweep subscribes too — it fans per-snapshot detector
	// tasks out on the pool from inside the pass (community.SweepStage).
	subscribe func(rt *planRT, eng *engine.Engine)
	// afterPass submits pool tasks that depend on the shared pass having
	// finished (the SVM evaluation reads the community stage's result).
	afterPass func(ctx context.Context, rt *planRT, pool *engine.Pool)
	// harvest copies the stage's output into the Result after the pool
	// has been joined.
	harvest func(rt *planRT)
	// emitters builds each of the stage's figure tables from a Result.
	emitters map[string]func(*Result) (*Table, error)
}

// planRT carries one pipeline run's stage instances, so dependent specs
// (users, svm) can read their producers' results at Finish time and every
// spec's harvest step can reach its own stage.
type planRT struct {
	cfg  Config
	meta trace.Meta
	res  *Result
	// pool is the run's one CPU budget; run drains it before harvesting.
	pool *engine.Pool
	// snaps freezes the shared graph once per snapshot day for the
	// community stage and the δ-sweep together.
	snaps *community.Snapshots

	metrics *metrics.Stage
	evo     *evolution.Stage
	alpha   *evolution.AlphaStage
	comm    *community.Stage
	users   *community.UsersStage
	merge   *osnmerge.Stage
	sweep   *community.SweepStage
}

// stageRegistry lists every stage spec in execution order: subscription
// order on the shared pass (which fixes callback and Finish order) and
// harvest order. Dependencies must precede their dependents.
var stageRegistry = []*StageSpec{
	{
		Name:    metrics.StageName,
		Figures: []string{"fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			rt.metrics = metrics.NewStage(metrics.StageOptions{
				MetricsEvery:      rt.cfg.MetricsEvery,
				PathEvery:         rt.cfg.PathEvery,
				PathSources:       rt.cfg.PathSources,
				ClusteringSamples: rt.cfg.ClusteringSamples,
				Seed:              rt.cfg.Seed,
				Pool:              rt.pool,
			})
			eng.Subscribe(rt.metrics)
		},
		harvest: func(rt *planRT) {
			rt.res.Growth = rt.metrics.Growth
			rt.res.Metrics = rt.metrics.Snapshots
		},
		emitters: map[string]func(*Result) (*Table, error){
			"fig1a": (*Result).fig1a,
			"fig1b": (*Result).fig1b,
			"fig1c": func(r *Result) (*Table, error) { return r.fig1Metric("fig1c") },
			"fig1d": (*Result).fig1d,
			"fig1e": func(r *Result) (*Table, error) { return r.fig1Metric("fig1e") },
			"fig1f": func(r *Result) (*Table, error) { return r.fig1Metric("fig1f") },
		},
	},
	{
		Name:    evolution.StageName,
		Figures: []string{"fig2a", "fig2b", "fig2c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			rt.evo = evolution.NewStage(rt.cfg.Evolution)
			eng.Subscribe(rt.evo)
		},
		harvest: func(rt *planRT) { rt.res.Evolution = rt.evo.Result() },
		emitters: map[string]func(*Result) (*Table, error){
			"fig2a": (*Result).fig2a,
			"fig2b": (*Result).fig2b,
			"fig2c": (*Result).fig2c,
		},
	},
	{
		Name:    evolution.AlphaStageName,
		Figures: []string{"fig3a", "fig3b", "fig3c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			rt.alpha = evolution.NewAlphaStage(rt.cfg.Alpha)
			eng.Subscribe(rt.alpha)
		},
		harvest: func(rt *planRT) { rt.res.Alpha = rt.alpha.Result() },
		emitters: map[string]func(*Result) (*Table, error){
			"fig3a": func(r *Result) (*Table, error) { return r.fig3pe("fig3a", true) },
			"fig3b": func(r *Result) (*Table, error) { return r.fig3pe("fig3b", false) },
			"fig3c": (*Result).fig3c,
		},
	},
	{
		Name:    community.StageName,
		Figures: []string{"fig5a", "fig5b", "fig5c", "fig6a", "fig6c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			rt.comm = community.NewStage(rt.cfg.Community)
			rt.comm.Share(rt.snaps, rt.pool)
			eng.Subscribe(rt.comm)
		},
		harvest: func(rt *planRT) { rt.res.Community = rt.comm.Result() },
		emitters: map[string]func(*Result) (*Table, error){
			"fig5a": (*Result).fig5a,
			"fig5b": (*Result).fig5b,
			"fig5c": (*Result).fig5c,
			"fig6a": (*Result).fig6a,
			"fig6c": (*Result).fig6c,
		},
	},
	{
		Name:    community.UsersStageName,
		Deps:    []string{community.StageName},
		Figures: []string{"fig7a", "fig7b", "fig7c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			// The community stage subscribes first (registry order), so its
			// Finish has sealed the final snapshot by the time this stage
			// classifies users against it.
			rt.users = community.NewUsersStage(nil, rt.comm.Result)
			eng.Subscribe(rt.users)
		},
		harvest: func(rt *planRT) { rt.res.Users = rt.users.Impact() },
		emitters: map[string]func(*Result) (*Table, error){
			"fig7a": (*Result).fig7a,
			"fig7b": func(r *Result) (*Table, error) { return r.fig7Buckets("fig7b") },
			"fig7c": func(r *Result) (*Table, error) { return r.fig7Buckets("fig7c") },
		},
	},
	{
		Name:    "svm",
		Deps:    []string{community.StageName},
		Figures: []string{"fig6b"},
		afterPass: func(ctx context.Context, rt *planRT, pool *engine.Pool) {
			// The SVM evaluation depends on the community stage's result but
			// not on the other finishers; it joins the concurrent fan-out.
			pool.GoContext(ctx, func() error {
				applyMergePrediction(rt.res, rt.comm.Result(), rt.meta.MergeDay, rt.cfg.Seed)
				return nil
			})
		},
		emitters: map[string]func(*Result) (*Table, error){
			"fig6b": (*Result).fig6b,
		},
	},
	{
		Name:    community.SweepStageName,
		Figures: []string{"fig4a", "fig4b", "fig4c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			// The δ-sweep subscribes to the same shared pass as every
			// other stage: the engine maintains the single evolving graph,
			// and at each snapshot day the stage takes the day's one
			// frozen view (shared with the community stage) and queues
			// the per-δ detectors on the pool against it — one replay and
			// one graph for the whole sweep, instead of re-opening the
			// source per δ. A no-figure plan reaches here with whatever
			// δ list the config has; with an empty one nothing runs.
			if len(rt.cfg.DeltaSweep) == 0 {
				return
			}
			rt.sweep = community.NewSweepStage(rt.cfg.Community, rt.cfg.DeltaSweep, rt.pool)
			rt.sweep.Share(rt.snaps)
			eng.Subscribe(rt.sweep)
		},
		harvest: func(rt *planRT) {
			if rt.sweep == nil {
				return
			}
			opt := rt.cfg.Community
			for i, d := range rt.cfg.DeltaSweep {
				dr := rt.sweep.Result(i)
				if dr == nil {
					continue
				}
				run := DeltaRun{Delta: d, Stats: dr.Stats}
				if len(opt.SizeDistDays) > 0 {
					run.SizeDist = dr.SizeDists[opt.SizeDistDays[len(opt.SizeDistDays)-1]]
				}
				rt.res.DeltaSweep = append(rt.res.DeltaSweep, run)
			}
		},
		emitters: map[string]func(*Result) (*Table, error){
			"fig4a": func(r *Result) (*Table, error) { return r.fig4Series("fig4a") },
			"fig4b": func(r *Result) (*Table, error) { return r.fig4Series("fig4b") },
			"fig4c": (*Result).fig4c,
		},
	},
	{
		Name:    osnmerge.StageName,
		Figures: []string{"fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c"},
		subscribe: func(rt *planRT, eng *engine.Engine) {
			// The §5 analysis only exists for traces with a merge event;
			// without one the stage stays unsubscribed and its figures
			// report ErrStageSkipped.
			if rt.meta.MergeDay < 0 {
				return
			}
			rt.merge = osnmerge.NewStage(rt.meta.MergeDay, rt.cfg.Merge)
			eng.Subscribe(rt.merge)
		},
		harvest: func(rt *planRT) {
			if rt.merge != nil {
				rt.res.Merge = rt.merge.Result()
			}
		},
		emitters: map[string]func(*Result) (*Table, error){
			"fig8a": func(r *Result) (*Table, error) { return r.fig8Active("fig8a") },
			"fig8b": func(r *Result) (*Table, error) { return r.fig8Active("fig8b") },
			"fig8c": (*Result).fig8c,
			"fig9a": func(r *Result) (*Table, error) { return r.fig9Ratios("fig9a") },
			"fig9b": func(r *Result) (*Table, error) { return r.fig9Ratios("fig9b") },
			"fig9c": (*Result).fig9c,
		},
	},
}

// figureEntry resolves one figure id to its producing stage and emitter.
type figureEntry struct {
	stage *StageSpec
	emit  func(*Result) (*Table, error)
}

var (
	specByName     = map[string]*StageSpec{}
	figureRegistry = map[string]*figureEntry{}
)

// init indexes the registry and cross-checks it against AllFigures: every
// listed panel must have exactly one producing stage, every dependency must
// precede its dependent, and no stage may register a figure outside the
// paper-order list. A mismatch is a programmer error in this package.
func init() {
	for _, s := range stageRegistry {
		if specByName[s.Name] != nil {
			panic("core: duplicate stage " + s.Name)
		}
		specByName[s.Name] = s
		for _, d := range s.Deps {
			if specByName[d] == nil {
				panic("core: stage " + s.Name + " depends on " + d + ", which must be registered first")
			}
		}
		for _, id := range s.Figures {
			if figureRegistry[id] != nil {
				panic("core: figure " + id + " registered twice")
			}
			emit := s.emitters[id]
			if emit == nil {
				panic("core: figure " + id + " has no emitter")
			}
			figureRegistry[id] = &figureEntry{stage: s, emit: emit}
		}
		if len(s.emitters) != len(s.Figures) {
			panic("core: stage " + s.Name + " has emitters outside its figure list")
		}
	}
	for _, id := range AllFigures {
		if figureRegistry[id] == nil {
			panic("core: figure " + id + " has no registered stage")
		}
	}
	if len(figureRegistry) != len(AllFigures) {
		panic("core: registry produces figures outside AllFigures")
	}
}

// Registry returns descriptive copies of the registered stage specs in
// execution order — the figure id → stage mapping tooling consumes (e.g.
// `figures -list`).
func Registry() []StageSpec {
	out := make([]StageSpec, len(stageRegistry))
	for i, s := range stageRegistry {
		out[i] = StageSpec{
			Name:    s.Name,
			Deps:    append([]string(nil), s.Deps...),
			Figures: append([]string(nil), s.Figures...),
		}
	}
	return out
}

// FigureUsesDeltaSweep reports whether the panel is produced by the
// δ-sweep stage — i.e. whether a δ-set parameter changes its content.
// The serving layer routes figure requests with a custom δ-set through a
// cold plan execution only when this is true; for every other panel δ is
// inert and the warm snapshot serves the request.
func FigureUsesDeltaSweep(id string) bool {
	e, ok := figureRegistry[id]
	return ok && e.stage.Name == community.SweepStageName
}

// StageFor returns the name of the stage that produces the figure id, or
// ErrUnknownFigure.
func StageFor(id string) (string, error) {
	e, ok := figureRegistry[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownFigure, id)
	}
	return e.stage.Name, nil
}

// FigurePlan is a resolved, dependency-closed set of stages — the unit of
// execution of the demand-driven pipeline. Build one with Plan and run it
// with RunPlan.
type FigurePlan struct {
	specs     []*StageSpec // execution (registry) order
	requested []string     // explicitly requested figure ids, if any
}

// ErrNoDeltaSweep is returned at plan time when a fig4 panel is requested
// with an empty Config.DeltaSweep: the sweep stage would run zero passes
// and the requested panel could only ever report ErrStageSkipped.
var ErrNoDeltaSweep = errors.New("core: fig4 panels need a non-empty Config.DeltaSweep")

// Plan resolves the minimal dependency-closed stage set that produces the
// requested figures: each id maps to its producing stage, and stages whose
// Finish reads another stage's result pull that stage in (fig7a runs the
// community pipeline too). Requests that can never be served fail at plan
// time — ErrUnknownFigure for ids outside AllFigures, ErrNoDeltaSweep for
// fig4 panels without configured δ values. With no figure ids the plan is
// every registered stage in registry order; its sweep stage then runs only
// when cfg.DeltaSweep is non-empty, and the merge stage only on a trace
// with a merge day.
func Plan(cfg Config, figures ...string) (*FigurePlan, error) {
	if len(figures) == 0 {
		return fullPlan(), nil
	}
	seen := map[string]bool{}
	var names, requested []string
	for _, id := range figures {
		e, ok := figureRegistry[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFigure, id)
		}
		if e.stage.Name == community.SweepStageName && len(cfg.DeltaSweep) == 0 {
			return nil, fmt.Errorf("%w (requested %q)", ErrNoDeltaSweep, id)
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		requested = append(requested, id)
		names = append(names, e.stage.Name)
	}
	return planOf(names, requested), nil
}

// fullPlan is the plan of every registered stage, in registry order.
func fullPlan() *FigurePlan {
	return &FigurePlan{specs: stageRegistry}
}

// planOf closes the named stage set over Deps and orders it by the
// registry's execution order.
func planOf(names, requested []string) *FigurePlan {
	need := map[string]bool{}
	var add func(name string)
	add = func(name string) {
		if need[name] {
			return
		}
		need[name] = true
		for _, d := range specByName[name].Deps {
			add(d)
		}
	}
	for _, n := range names {
		add(n)
	}
	p := &FigurePlan{requested: requested}
	for _, s := range stageRegistry {
		if need[s.Name] {
			p.specs = append(p.specs, s)
		}
	}
	return p
}

// Stages returns the plan's stage names in execution order.
func (p *FigurePlan) Stages() []string {
	out := make([]string, len(p.specs))
	for i, s := range p.specs {
		out[i] = s.Name
	}
	return out
}

// Has reports whether the plan includes the named stage.
func (p *FigurePlan) Has(name string) bool {
	for _, s := range p.specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// Figures returns the panel ids the plan serves: the explicitly requested
// ids for a figure-driven plan, otherwise every id its stages produce, in
// paper order.
func (p *FigurePlan) Figures() []string {
	if len(p.requested) > 0 {
		return append([]string(nil), p.requested...)
	}
	var out []string
	for _, id := range AllFigures {
		if p.Has(figureRegistry[id].stage.Name) {
			out = append(out, id)
		}
	}
	return out
}

// progressStage adapts Config.OnProgress to a named, checkpointable
// stage: the cumulative event count is externalized so a resumed run's
// progress line continues from the checkpoint's count instead of zero.
type progressStage struct {
	events int64
	fn     func(day int32, events int64)
}

func (p *progressStage) Name() string                          { return "progress" }
func (p *progressStage) OnEvent(_ *trace.State, _ trace.Event) { p.events++ }
func (p *progressStage) OnDayEnd(_ *trace.State, day int32)    { p.fn(day, p.events) }
func (p *progressStage) Finish(_ *trace.State) error           { return nil }

// SaveState implements engine.Checkpointer.
func (p *progressStage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.I64(p.events)
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (p *progressStage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	p.events = d.I64()
	return d.Err()
}

// planExec is one instantiation of a FigurePlan over a concrete trace:
// the engine with every plan stage subscribed, plus the runtime the specs
// share. Split from run so tests can assert the subscription set.
type planExec struct {
	plan *FigurePlan
	rt   *planRT
	eng  *engine.Engine

	// backend, ckptHash, and ckptNames identify where checkpoints live
	// and which are compatible, when checkpointing is armed
	// (armCheckpoints).
	backend   storage.Backend
	ckptHash  uint64
	ckptNames []string

	// parent summarizes the last checkpoint this run wrote or restored —
	// what the next delta checkpoint is diffed against (nil until the
	// first full is written; writes fall back to full without it).
	parent *ckptParent

	// resumeState/resumeDay carry a restored checkpoint into run: the
	// shared state at the end of resumeDay, with every subscribed stage
	// already restored via LoadState. resumeWarm marks a state that came
	// from a ResumeHandle rather than from the backend.
	resumeState *trace.State
	resumeDay   int32
	resumeWarm  bool
}

// instantiate builds the run: defaults the config, constructs each stage
// from it (the stages that fan out get the run's CPU budget), and
// subscribes the shared-pass stages in registry order.
func (p *FigurePlan) instantiate(cfg Config, meta trace.Meta) *planExec {
	cfg = cfg.withDefaults()
	// One budget serves the whole run: the sweep/SVM tasks, the engine's
	// day-batch dispatch, and the sampled-BFS lane batches all draw on
	// its cfg.Workers tokens, one of which the replay goroutine holds.
	rt := &planRT{cfg: cfg, meta: meta, res: &Result{Meta: meta, ResumedFromDay: -1}, pool: engine.NewPool(cfg.Workers), snaps: new(community.Snapshots)}
	eng := engine.New()
	eng.Hint(int(meta.Nodes), int(meta.Edges))
	eng.SetPool(rt.pool)
	for _, s := range p.specs {
		if s.subscribe != nil {
			s.subscribe(rt, eng)
		}
	}
	// The progress hook observes the shared pass, so it only subscribes
	// when some analysis stage gives that pass a reason to run (with an
	// empty δ list even a sweep-only plan subscribes nothing). By day-end
	// every event has been dispatched to all subscribers, so position in
	// the subscription order doesn't change the reported counts.
	if cfg.OnProgress != nil && eng.Stages() > 0 {
		eng.Subscribe(&progressStage{fn: cfg.OnProgress})
	}
	x := &planExec{plan: p, rt: rt, eng: eng}
	x.armCheckpoints()
	return x
}

// run executes the instantiated plan: the engine runs the shared pass
// with ctx checked at day boundaries (the δ-sweep's per-snapshot detector
// tasks fan out on the pool from inside that pass), Finish-dependent
// tasks join the pool after it, and harvest copies stage outputs into the
// Result once the pool is drained. On success it also returns the
// pass's end state (nil when the plan has no shared-pass stages). On any
// error — including ctx cancellation — no Result is returned.
func (x *planExec) run(ctx context.Context, src trace.Source) (*Result, *trace.State, error) {
	// An already-cancelled context must never yield a success Result, even
	// when the plan has no shared-pass stages or pool tasks to notice it.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	pool := x.rt.pool
	var st *trace.State
	var err error
	if x.eng.Stages() > 0 {
		if x.resumeState != nil {
			x.rt.res.ResumedFromDay = x.resumeDay
			x.rt.res.ResumedInMemory = x.resumeWarm
			st, err = x.eng.ResumeSourceContext(ctx, src, x.resumeState, x.resumeDay)
		} else {
			st, err = x.eng.RunSourceContext(ctx, src)
		}
	}
	if err == nil {
		for _, s := range x.plan.specs {
			if s.afterPass != nil {
				s.afterPass(ctx, x.rt, pool)
			}
		}
	}
	// Always drain the pool, even on engine error, so no goroutine
	// outlives the call.
	if werr := pool.Wait(); err == nil && werr != nil {
		return nil, nil, werr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	for _, s := range x.plan.specs {
		if s.harvest != nil {
			s.harvest(x.rt)
		}
	}
	res := x.rt.res
	// Demand-driven runs pre-populate the keyed table store with the
	// requested panels; skipped-stage errors stay lazy so Figure reports
	// them per lookup.
	for _, id := range x.plan.requested {
		if tab, err := figureRegistry[id].emit(res); err == nil {
			res.putTable(id, tab)
		}
	}
	return res, st, nil
}

// runPlan is the execution entry shared by RunPlan and ContinueFigures.
// With Config.Resume set it restores the latest compatible checkpoint —
// latest checkpoint day not past the trace's last day, exact stage-set and
// fingerprint match — from warm when warm is that checkpoint's end state,
// else from the backend, and replays only the days after it; any restore
// problem discards the instantiation and falls back to a from-zero run, so
// resume is never worse than not resuming. A successful checkpointed pass returns its
// own end state as the next pass's handle.
func runPlan(ctx context.Context, src trace.Source, meta trace.Meta, cfg Config, plan *FigurePlan, warm ResumeHandle) (*Result, *ResumeHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x := plan.instantiate(cfg, meta)
	if cfg.Resume && x.backend != nil && x.eng.Stages() > 0 {
		// Restore the newest compatible checkpoint chain; tolerant of
		// another process rotating the backend mid-scan (see
		// resolveResume).
		x = resolveResume(plan, x, src, meta, cfg, warm)
	}
	res, st, err := x.run(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	return res, x.resumeHandle(st), nil
}

// RunPlan executes a resolved plan over a re-openable event source on the
// streaming engine: every plan stage — the δ-sweep included — subscribes
// to one shared replay, with the sweep's per-snapshot detector tasks and
// the post-pass SVM evaluation fanned out on the bounded worker pool. ctx
// cancels the whole run at the next day boundary (in-flight snapshot
// barriers included) — RunPlan then returns ctx's error and no Result. A
// nil plan runs every registered stage, as Plan(cfg) with no figures does.
func RunPlan(ctx context.Context, src trace.MetaSource, cfg Config, plan *FigurePlan) (*Result, error) {
	meta := src.Meta()
	if meta.Nodes == 0 && meta.Edges == 0 {
		return nil, ErrEmptyTrace
	}
	if plan == nil {
		plan = fullPlan()
	}
	res, _, err := runPlan(ctx, src, meta, cfg, plan, ResumeHandle{})
	return res, err
}

// RunFigures plans and runs the minimal stage set for the requested figure
// panels — the demand-driven entry point: asking for one panel pays for
// exactly the stages (and replay passes) that panel needs. The returned
// Result serves Figure(id) for each requested id from the keyed store.
func RunFigures(ctx context.Context, src trace.MetaSource, cfg Config, figures ...string) (*Result, error) {
	plan, err := Plan(cfg, figures...)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, src, cfg, plan)
}

// ContinueFigures is RunFigures for a caller that keeps one checkpointed
// plan warm across passes over a growing trace — the serving daemon. from
// is the handle the previous pass returned (nil on a cold start or after
// a failed pass), and is consumed whether or not it is used: when the
// newest compatible checkpoint is the one that pass ended on, the run
// continues from the pass's end state in memory instead of reading the
// chain back from the backend; any other case resumes as RunFigures does.
// The returned handle, nil when the pass leaves no usable end state, is
// the resume point for the next pass. It holds this pass's state, which
// the next pass mutates, so nothing else may keep it.
func ContinueFigures(ctx context.Context, src trace.MetaSource, cfg Config, from *ResumeHandle, figures ...string) (*Result, *ResumeHandle, error) {
	warm := from.take()
	plan, err := Plan(cfg, figures...)
	if err != nil {
		return nil, nil, err
	}
	meta := src.Meta()
	if meta.Nodes == 0 && meta.Edges == 0 {
		return nil, nil, ErrEmptyTrace
	}
	return runPlan(ctx, src, meta, cfg, plan, warm)
}
