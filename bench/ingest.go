package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// progressClock records the first and last day boundary of a replay, as
// reported through core.Config.OnProgress. With readClock they split an
// AdvanceTo into checkpoint restore (up to the last checkpoint read),
// replay (decoding the checkpoint and replaying the new days, up to the
// last day boundary), and seal (end-of-run checkpoint, Finish, Seal and
// publish).
type progressClock struct {
	mu          sync.Mutex
	first, last time.Time
}

func (p *progressClock) mark(int32, int64) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.first.IsZero() {
		p.first = now
	}
	p.last = now
}

// take returns the marks since the last take and clears them.
func (p *progressClock) take() (first, last time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	first, last = p.first, p.last
	p.first, p.last = time.Time{}, time.Time{}
	return first, last
}

// readClock is the daemon's checkpoint backend in a traced run: the
// directory backend the daemon would use, stamping when each read ends.
// The last read before the first replayed day ends the checkpoint
// restore.
type readClock struct {
	storage.Backend
	mu    sync.Mutex
	reads []time.Time
}

func (b *readClock) stamp() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads = append(b.reads, time.Now())
}

func (b *readClock) Get(name string) ([]byte, error) {
	data, err := b.Backend.Get(name)
	b.stamp()
	return data, err
}

func (b *readClock) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	rc, err := b.Backend.OpenRange(name, off, n)
	if err != nil {
		b.stamp()
		return nil, err
	}
	return &stampedReader{ReadCloser: rc, b: b}, nil
}

// lastBefore returns the end of the last read before t, or zero, and
// forgets every read.
func (b *readClock) lastBefore(t time.Time) time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	var last time.Time
	for _, r := range b.reads {
		if r.Before(t) && r.After(last) {
			last = r
		}
	}
	b.reads = b.reads[:0]
	return last
}

type stampedReader struct {
	io.ReadCloser
	b *readClock
}

func (r *stampedReader) Close() error {
	err := r.ReadCloser.Close()
	r.b.stamp()
	return err
}

// ingestRun appends days to the daemon's trace on a fixed schedule while
// probing the file and advancing the daemon, as `rrgen -append` beside
// `rrserved -follow` would.
type ingestRun struct {
	d        *daemon
	path     string
	days     [][]trace.Event // days[k] is day firstDay+k
	firstDay int32
	interval time.Duration
	// Traced runs only: the layer clocks and the /statz client.
	prog      *progressClock
	ckptReads *readClock
	statz     *client
	spans     *spanLog
}

// applyRecord is one AdvanceTo that published new days.
type applyRecord struct {
	probe                      time.Duration
	backlog                    int32 // sealed minus published days when the probe ran
	start, restored, last, end time.Time
	ckpt                       checkpointStat
	carried, figures           int
}

type ingestResult struct {
	visible           []float64 // ms from each appended day's due time to its publication
	probes            []float64 // ms per probe
	applies           []applyRecord
	late              time.Duration // how far behind schedule the writer ran, at most
	attempted, failed int64
}

// newIngest loads the days past the daemon's published day from the
// extended trace and spreads their appends evenly over span.
func newIngest(d *daemon, path, extended string, span time.Duration, l *spanLog) (*ingestRun, error) {
	first := d.srv.Snapshot().Day + 1
	tf, err := trace.OpenTrace(extended)
	if err != nil {
		return nil, err
	}
	n := int(tf.Meta().Days - first)
	if n < 2 {
		return nil, fmt.Errorf("extended trace has %d days past day %d", n, first-1)
	}
	cur, err := tf.OpenAt(first)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	days := make([][]trace.Event, n)
	for {
		ev, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		days[ev.Day-first] = append(days[ev.Day-first], ev)
	}
	return &ingestRun{
		d: d, path: path, days: days, firstDay: first,
		interval: span / time.Duration(n-1), spans: l,
	}, nil
}

// run appends every day, open loop: day k's events are written and
// flushed at start+k·interval whether or not the daemon has caught up,
// which seals day k-1 for the tail probe. The last day is sealed by
// finalizing the file. After each flush the daemon is probed and advanced
// to whatever is sealed, and x learns each published generation.
func (g *ingestRun) run(ctx context.Context, x *expected) (*ingestResult, error) {
	f, err := os.OpenFile(g.path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	enc, err := trace.OpenAppend(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := &ingestResult{}
	notify := make(chan struct{}, 1)
	signal := func() {
		select {
		case notify <- struct{}{}:
		default: // a probe is already pending; it will see this write too
		}
	}
	t0 := time.Now()
	due := func(k int) time.Time { return t0.Add(time.Duration(k) * g.interval) }

	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if werr = g.write(ctx, f, enc, due, signal, &res.late); werr != nil {
			cancel()
		}
	}()

	final := g.firstDay + int32(len(g.days)) - 1
	published := g.d.srv.Snapshot().Day
	for published < final && err == nil {
		select {
		case <-notify:
			published = g.step(ctx, res, x, published, final, due)
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("append: %w", werr)
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return res, nil
}

// write is the appender.
func (g *ingestRun) write(ctx context.Context, f *os.File, enc *trace.Encoder, due func(int) time.Time, signal func(), late *time.Duration) error {
	defer f.Close()
	for k, evs := range g.days {
		if err := sleepUntil(ctx, due(k)); err != nil {
			return err
		}
		*late = max(*late, time.Since(due(k)))
		for _, ev := range evs {
			if err := enc.Write(ev); err != nil {
				return err
			}
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		signal()
	}
	if err := enc.Close(); err != nil {
		return err
	}
	err := f.Close()
	signal()
	return err
}

// step probes the file and, if days were sealed past the published one,
// advances the daemon to them. It returns the published day.
func (g *ingestRun) step(ctx context.Context, res *ingestResult, x *expected, published, final int32, due func(int) time.Time) int32 {
	tp := time.Now()
	snap, err := g.d.tailer.Probe()
	probed := time.Now()
	res.probes = append(res.probes, millis(probed.Sub(tp)))
	g.spans.add(0, "probe", tp, probed, nil)
	if err != nil || snap.SealedDay <= published {
		return published
	}
	res.attempted++
	if g.prog != nil {
		g.prog.take()
		g.ckptReads.lastBefore(time.Now())
	}
	a0 := time.Now()
	advanced, day, err := g.d.srv.AdvanceTo(ctx, snap.Source())
	a1 := time.Now()
	if err != nil || !advanced || day != snap.SealedDay {
		res.failed++
		return g.d.srv.Snapshot().Day
	}
	if err := x.add(g.d.srv.Snapshot()); err != nil {
		res.failed++
		return day
	}
	for d := published + 1; d <= day && d < final; d++ {
		res.visible = append(res.visible, millis(a1.Sub(due(int(d-g.firstDay)+1))))
	}
	rec := applyRecord{probe: probed.Sub(tp), backlog: snap.SealedDay - published, start: a0, end: a1}
	if g.prog != nil {
		var first time.Time
		first, rec.last = g.prog.take()
		if rec.restored = g.ckptReads.lastBefore(first); rec.restored.IsZero() {
			rec.restored = a0 // nothing to restore: a from-zero replay
		}
		id := g.spans.add(0, "apply", a0, a1, map[string]any{"from_day": published, "to_day": day})
		g.spans.add(id, "restore", a0, rec.restored, nil)
		g.spans.add(id, "replay", rec.restored, rec.last, nil)
		g.spans.add(id, "seal", rec.last, a1, nil)
	}
	if g.statz != nil {
		if st, err := g.statz.statz(ctx); err == nil {
			rec.ckpt = lastCheckpoint(st)
			rec.carried, rec.figures = st.Snapshot.Carried, st.Snapshot.Figures
		}
	}
	res.applies = append(res.applies, rec)
	return day
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ingestLayers sets the ingest and checkpoint layer metrics of a traced
// serve-ingest run.
func ingestLayers(m map[string]float64, r *ingestResult) {
	var apply, restore, replay, seal []float64
	var ckpts []checkpointStat
	var backlog int32
	var carried, figures float64
	for _, a := range r.applies {
		apply = append(apply, millis(a.end.Sub(a.start)))
		if !a.last.IsZero() {
			restore = append(restore, millis(a.restored.Sub(a.start)))
			replay = append(replay, millis(a.last.Sub(a.restored)))
			seal = append(seal, millis(a.end.Sub(a.last)))
		}
		ckpts = append(ckpts, a.ckpt)
		backlog = max(backlog, a.backlog)
		carried += float64(a.carried)
		figures += float64(a.figures)
	}
	m["ingest.probe_ms"] = median(r.probes)
	m["ingest.apply_p50_ms"] = percentile(apply, 50)
	m["ingest.apply_p80_ms"] = percentile(apply, 80)
	m["ingest.restore_ms"] = median(restore)
	m["ingest.replay_ms"] = median(replay)
	m["ingest.seal_ms"] = median(seal)
	m["ingest.backlog_max_days"] = float64(backlog)
	m["ingest.writer_late_ms"] = millis(r.late)
	m["serve.carried_ratio"] = ratio(carried, figures)
	checkpointLayers(m, ckpts)
}

// checkpointStat is /statz's last_checkpoint.
type checkpointStat struct {
	ok, delta      bool
	bytes, writeMs float64
}

func lastCheckpoint(st *statz) checkpointStat {
	c := st.Storage.LastCheckpoint
	if c == nil {
		return checkpointStat{}
	}
	return checkpointStat{ok: true, delta: c.Delta, bytes: float64(c.Bytes), writeMs: c.WriteMs}
}

// checkpointLayers sets the median checkpoint write time and size, and
// the median delta checkpoint's size as a share of the median full one's
// (0 unless both kinds were seen).
func checkpointLayers(m map[string]float64, stats []checkpointStat) {
	var ms, size, full, delta []float64
	for _, s := range stats {
		if !s.ok {
			continue
		}
		ms = append(ms, s.writeMs)
		size = append(size, s.bytes)
		if s.delta {
			delta = append(delta, s.bytes)
		} else {
			full = append(full, s.bytes)
		}
	}
	m["checkpoint.write_ms"] = median(ms)
	m["checkpoint.bytes"] = median(size)
	m["checkpoint.delta_ratio"] = ratio(median(delta), median(full))
}
