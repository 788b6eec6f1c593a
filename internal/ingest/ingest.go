// Package ingest is the live ingest plane (DESIGN.md §9): it tail-follows
// a trace file that a writer is still appending to and drives the serving
// layer's warm state forward at every newly sealed day, so served figures
// stay continuously fresh without ever reading a half-written day.
//
// Two pieces compose it:
//
//   - Tailer wraps a trace.TailProbe behind a mutex and a monotonicity
//     guard, polls the file on a jittered backoff schedule, and surfaces
//     each sealed-prefix snapshot.
//   - Applier connects a Tailer to a serve.Server: every snapshot whose
//     sealed day advanced is handed to Server.AdvanceTo — which resumes
//     from the newest checkpoint, replays only the new days, and
//     republishes — and ingest lag metrics are kept for /statz.
//
// The correctness bar the plane is built against: after any number of
// appended days, the served figures are bit-identical to a from-zero
// batch run over the same sealed prefix (pinned by the live-loop test).
package ingest

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// Options configures a Tailer.
type Options struct {
	// Path is the trace file to follow (required).
	Path string
	// Poll is the interval between probes while the file is advancing
	// (default 500ms). Probes are stat-cheap: a header re-read plus a
	// decode of only the bytes appended since the last probe.
	Poll time.Duration
	// MaxPoll caps the backoff while the file is idle or missing
	// (default 10×Poll). The wait grows geometrically from Poll and
	// resets the moment a probe seals a new day.
	MaxPoll time.Duration
	// Log receives probe anomalies and apply errors (default
	// slog.Default).
	Log *slog.Logger
}

// Tailer polls a growing trace file and reports sealed-prefix snapshots.
// It is safe for concurrent use; probes are serialized internally.
type Tailer struct {
	opt Options
	log *slog.Logger

	mu     sync.Mutex
	probe  *trace.TailProbe
	sealed int32 // highest sealed day ever observed, -1 before any
}

// NewTailer returns a tailer for the trace file at path options.
func NewTailer(opt Options) *Tailer {
	if opt.Poll <= 0 {
		opt.Poll = 500 * time.Millisecond
	}
	if opt.MaxPoll <= 0 {
		opt.MaxPoll = 10 * opt.Poll
	}
	if opt.Log == nil {
		opt.Log = slog.Default()
	}
	return &Tailer{
		opt:    opt,
		log:    opt.Log,
		probe:  trace.NewTailProbe(opt.Path),
		sealed: -1,
	}
}

// Probe runs one tail probe. Sealed days are monotonic across the
// tailer's lifetime: a snapshot whose sealed day regresses (the file was
// replaced with a shorter trace) is rejected with an error rather than
// handed to a consumer that has already published further.
func (t *Tailer) Probe() (*trace.TailSnapshot, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap, err := t.probe.Probe()
	if err != nil {
		return nil, err
	}
	if snap.SealedDay < t.sealed {
		return nil, fmt.Errorf("ingest: %s: sealed day regressed %d -> %d (file replaced with a shorter trace?)",
			t.opt.Path, t.sealed, snap.SealedDay)
	}
	t.sealed = snap.SealedDay
	return snap, nil
}

// OpenSealed probes the file and returns its sealed prefix as a
// MetaSource — the serve.Options.Open hook: the daemon's warm load and
// every refresh read through it, so they can never decode past a day
// barrier. It fails while the file holds no sealed events yet.
func (t *Tailer) OpenSealed() (trace.MetaSource, error) {
	snap, err := t.Probe()
	if err != nil {
		return nil, err
	}
	src := snap.Source()
	if src == nil {
		return nil, fmt.Errorf("ingest: %s: no sealed events yet", t.opt.Path)
	}
	return src, nil
}

// Follow polls the file until ctx is done, invoking apply for every
// snapshot whose sealed day advanced past the last successful apply.
// Probe errors (file missing, header not yet finalized) and apply errors
// are logged and retried on the backoff schedule; tail anomalies are
// logged but do not block the sealed prefix they left intact. The wait
// between polls grows geometrically (~×1.6, jittered ±10%) up to MaxPoll
// while nothing advances, and snaps back to Poll when something does.
func (t *Tailer) Follow(ctx context.Context, apply func(context.Context, *trace.TailSnapshot) error) error {
	applied := int32(-2) // below any reportable sealed day
	wait := t.opt.Poll
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		advanced := false
		snap, err := t.Probe()
		switch {
		case err != nil:
			t.log.LogAttrs(ctx, slog.LevelWarn, "tail probe failed",
				slog.String("path", t.opt.Path), slog.String("err", err.Error()))
		default:
			if snap.Anomaly != nil {
				t.log.LogAttrs(ctx, slog.LevelWarn, "tail anomaly past sealed prefix",
					slog.String("path", t.opt.Path),
					slog.Int("sealed_day", int(snap.SealedDay)),
					slog.String("err", snap.Anomaly.Error()))
			}
			if snap.SealedDay > applied {
				if err := apply(ctx, snap); err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					t.log.LogAttrs(ctx, slog.LevelError, "apply failed",
						slog.Int("sealed_day", int(snap.SealedDay)),
						slog.String("err", err.Error()))
				} else {
					applied = snap.SealedDay
					advanced = true
				}
			}
		}
		if advanced {
			wait = t.opt.Poll
		} else {
			wait = t.backoff(wait)
		}
		timer.Reset(jitter(wait))
	}
}

// WaitSealed is OpenSealed retried on Follow's backoff schedule until the
// file holds a sealed day or ctx is done: the startup wait of a daemon
// that may win the race against its writer, or be pointed at a path that
// does not exist yet. It logs the first failure and every change of
// error, not each retry.
func (t *Tailer) WaitSealed(ctx context.Context) (trace.MetaSource, error) {
	wait := t.opt.Poll
	var last string
	for {
		src, err := t.OpenSealed()
		if err == nil {
			return src, nil
		}
		if msg := err.Error(); msg != last {
			last = msg
			t.log.LogAttrs(ctx, slog.LevelInfo, "waiting for a sealed trace prefix",
				slog.String("trace", t.opt.Path), slog.String("err", msg))
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jitter(wait)):
		}
		wait = t.backoff(wait)
	}
}

// backoff is the wait after an idle poll, one that sealed no new day:
// ×8/5 the last one, capped at MaxPoll.
func (t *Tailer) backoff(wait time.Duration) time.Duration {
	return min(wait*8/5, t.opt.MaxPoll)
}

// jitter spreads a wait by ±10% so a fleet of followers doesn't stat in
// lockstep.
func jitter(wait time.Duration) time.Duration {
	return wait/10*9 + time.Duration(rand.Int63n(int64(wait/5)+1))
}

// ApplyStats is a point-in-time view of the ingest plane's progress,
// exposed on /statz via Applier.Statz.
type ApplyStats struct {
	SealedDay     int32         `json:"sealed_day"`     // last day the tail probe sealed
	PublishedDay  int32         `json:"published_day"`  // last day the server has published
	DaysBehind    int32         `json:"days_behind"`    // sealed - published
	AppliedEvents int64         `json:"applied_events"` // events the last publish added
	Applies       int64         `json:"applies"`        // successful AdvanceTo publishes
	Errors        int64         `json:"errors"`         // failed applies
	LastApply     time.Duration `json:"last_apply_ns"`  // duration of the last publish
	EventsPerSec  float64       `json:"events_per_sec"` // new events / apply duration, last publish
}

// Applier drives a serve.Server from a Tailer: Run follows the file and
// funnels every newly sealed prefix into Server.AdvanceTo.
type Applier struct {
	srv    *serve.Server
	tailer *Tailer

	mu    sync.Mutex
	stats ApplyStats
}

// NewApplier returns an applier pushing tailer's sealed prefixes into srv.
func NewApplier(srv *serve.Server, tailer *Tailer) *Applier {
	return &Applier{srv: srv, tailer: tailer}
}

// Run follows the trace until ctx is done. Returns ctx.Err().
func (a *Applier) Run(ctx context.Context) error {
	return a.tailer.Follow(ctx, a.apply)
}

// apply hands one sealed snapshot to the server. Errors (including
// serve.ErrClosed during shutdown, until the caller cancels Run's ctx)
// are counted and returned for the follow loop to log and retry.
func (a *Applier) apply(ctx context.Context, snap *trace.TailSnapshot) error {
	a.mu.Lock()
	a.stats.SealedDay = snap.SealedDay
	a.mu.Unlock()

	src := snap.Source()
	if src == nil {
		return nil // nothing sealed yet; Follow backs off
	}
	// The baseline is what the server has published, not what this
	// applier last applied: the warm load and a POST /refresh advance it
	// without the applier.
	prev := a.srv.Snapshot().Meta
	t0 := time.Now()
	advanced, day, err := a.srv.AdvanceTo(ctx, src)
	took := time.Since(t0)

	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.stats.Errors++
		return err
	}
	a.stats.PublishedDay = day
	if advanced {
		a.stats.Applies++
		a.stats.AppliedEvents = snap.Events - (prev.Nodes + prev.Edges)
		a.stats.LastApply = took
		if secs := took.Seconds(); secs > 0 {
			a.stats.EventsPerSec = float64(a.stats.AppliedEvents) / secs
		}
	}
	return nil
}

// Statz renders the current ingest lag for /statz registration:
//
//	srv.RegisterStatz("ingest", applier.Statz)
func (a *Applier) Statz() any {
	a.mu.Lock()
	s := a.stats
	a.mu.Unlock()
	s.PublishedDay = a.srv.Snapshot().Day
	if s.DaysBehind = s.SealedDay - s.PublishedDay; s.DaysBehind < 0 {
		s.DaysBehind = 0
	}
	return s
}
