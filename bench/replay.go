package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// analysisOp is one analysis of a trace as `rranalyze -out` does it: run
// the plan, emit every panel, write each as TSV.
type analysisOp struct {
	src       trace.MetaSource
	cfg       core.Config
	plan      *core.FigurePlan
	figs      []string
	dir       string
	segmented bool
	written   []string // the panels the last op wrote
}

// digest digests the panels the last op wrote.
func (o *analysisOp) digest() (string, error) { return digestDir(o.dir, o.written) }

// dropFrameCache empties the process-wide inflated-frame cache and
// restores its capacity: a one-shot CLI process starts with it empty.
func dropFrameCache() {
	trace.SetFrameCacheCapacity(0)
	trace.SetFrameCacheCapacity(trace.DefaultFrameCacheBytes)
}

// untraced runs the op through core.RunPlan and returns its wall time.
func (o *analysisOp) untraced(ctx context.Context) (time.Duration, *core.Result, error) {
	if o.segmented {
		dropFrameCache()
	}
	t0 := time.Now()
	res, err := core.RunPlan(ctx, o.src, o.cfg, o.plan)
	if err != nil {
		return 0, nil, err
	}
	if o.written, _, _, err = emitAndWrite(res, o.figs, o.dir); err != nil {
		return 0, nil, err
	}
	return time.Since(t0), res, nil
}

// traced runs the op through the instrumented engine and returns its wall
// time and layer metrics, recording its spans in l.
func (o *analysisOp) traced(ctx context.Context, l *spanLog) (time.Duration, *core.Result, map[string]float64, error) {
	if o.segmented {
		dropFrameCache()
	}
	fc0 := trace.ReadFrameCacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	run, err := runInstrumented(ctx, o.src, o.cfg, o.plan)
	if err != nil {
		return 0, nil, nil, err
	}
	var emit, write time.Duration
	o.written, emit, write, err = emitAndWrite(run.res, o.figs, o.dir)
	if err != nil {
		return 0, nil, nil, err
	}
	end := time.Now()
	runtime.ReadMemStats(&ms1)
	fc1 := trace.ReadFrameCacheStats()

	m := run.layers()
	m["core.emit_s"] = seconds(emit)
	m["core.write_s"] = seconds(write)
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["trace.inflated_mb"] = float64(fc1.InflatedBytes-fc0.InflatedBytes) / (1 << 20)
	hits, misses := float64(fc1.Hits-fc0.Hits), float64(fc1.Misses-fc0.Misses)
	m["trace.frame_cache_hit_ratio"] = ratio(hits, hits+misses)

	if l != nil {
		id := l.add(0, "op", t0, end, nil)
		run.record(l, id)
		l.add(id, "emit", run.end, run.end.Add(emit), nil)
		l.add(id, "write", run.end.Add(emit), end, nil)
	}
	return end.Sub(t0), run.res, m, nil
}

// emitAndWrite extracts every panel from res, then writes each to dir as
// TSV, and returns the panels written and the time each half took. Like
// rranalyze it skips a panel whose stage had too little data for it
// (core.ErrStageSkipped: on some seeds fig6b has too few merge examples
// to train its SVM).
func emitAndWrite(res *core.Result, figs []string, dir string) (written []string, emit, write time.Duration, err error) {
	t0 := time.Now()
	var tabs []*core.Table
	for _, id := range figs {
		tab, err := res.Figure(id)
		if errors.Is(err, core.ErrStageSkipped) {
			continue
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("emit %s: %w", id, err)
		}
		tabs = append(tabs, tab)
		written = append(written, id)
	}
	t1 := time.Now()
	for i, id := range written {
		f, err := os.Create(filepath.Join(dir, id+".tsv"))
		if err != nil {
			return nil, 0, 0, err
		}
		if err := tabs[i].Write(f, core.FormatTSV); err != nil {
			f.Close()
			return nil, 0, 0, fmt.Errorf("write %s: %w", id, err)
		}
		if err := f.Close(); err != nil {
			return nil, 0, 0, err
		}
	}
	return written, t1.Sub(t0), time.Since(t1), nil
}

// digest is the SHA-256 of a sequence of named bodies, the form every
// workload's correctness digest takes.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(name string, body []byte) {
	fmt.Fprintf(d.h, "%s %d\n", name, len(body))
	d.h.Write(body)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestDir digests the TSV files an op wrote, in panel order.
func digestDir(dir string, figs []string) (string, error) {
	d := newDigest()
	for _, id := range figs {
		b, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			return "", err
		}
		d.add(id+".tsv", b)
	}
	return d.sum(), nil
}

// openAnalysis opens the run's trace and plans its analysis, the set-up a
// one-shot CLI run pays, as many times as the workload says, and returns
// the last op and each set-up's seconds.
func openAnalysis(e *runEnv) (*analysisOp, []float64, error) {
	dir := filepath.Join(e.scratch, "figures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var op *analysisOp
	var times []float64
	for i := 0; i < max(1, e.w.setups); i++ {
		t0 := time.Now()
		tf, err := trace.OpenTrace(filepath.Join(e.input, traceName))
		if err != nil {
			return nil, nil, fmt.Errorf("open trace: %w", err)
		}
		cfg := analysisConfig(tf.Meta())
		plan, err := core.Plan(cfg, e.w.figures...)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: %w", err)
		}
		times = append(times, seconds(time.Since(t0)))
		op = &analysisOp{src: tf, cfg: cfg, plan: plan, figs: plan.Figures(), dir: dir, segmented: e.w.segmented}
	}
	return op, times, nil
}

// runReplay drives replay-full and replay-stream: analyses of the trace,
// back to back, until the run's seconds are spent. Each analysis runs on
// a freshly set-up op, as a one-shot CLI process would, so the set-up
// times sample the whole run and not only its first milliseconds.
func runReplay(ctx context.Context, e *runEnv) (*outcome, error) {
	if e.traced {
		op, _, err := openAnalysis(e)
		if err != nil {
			return nil, err
		}
		return tracedAnalysis(ctx, e, op, nil)
	}
	out := newOutcome()
	var op *analysisOp
	var walls, setups []float64
	deadline := time.Now().Add(e.seconds)
	for out.attempted < int64(e.w.minOps) || time.Now().Before(deadline) {
		next, times, err := openAnalysis(e)
		if err != nil {
			return nil, err
		}
		op, setups = next, append(setups, times...)
		out.attempted++
		wall, _, err := op.untraced(ctx)
		if err != nil {
			out.fail("analysis: %v", err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		walls = append(walls, seconds(wall))
		if err := out.agree(op.digest()); err != nil {
			return nil, err
		}
	}
	meta := op.src.Meta()
	p50 := median(walls)
	out.metrics["setup_s"] = median(setups)
	out.metrics["latency_p50_ms"] = p50 * 1e3
	out.metrics["latency_tail_ms"] = percentile(walls, 90) * 1e3
	out.metrics["throughput_per_s"] = ratio(float64(meta.Nodes+meta.Edges), p50)
	return out, nil
}

// tracedAnalysis measures the layers of an analysis: decode and apply
// alone, then pairs of one untraced and one traced op, alternating which
// goes first, for at least e.pairs pairs and twice the run's seconds. The
// traced ops' stage outputs and written panels must equal the untraced
// ones; the layer metrics are the traced ops' medians, and
// traced.overhead_pct is the median over pairs of traced wall over
// untraced wall, less one: each pair's two ops run back to back, so a
// slow spell of the host slows both. out, if non-nil, receives the
// metrics.
func tracedAnalysis(ctx context.Context, e *runEnv, op *analysisOp, out *outcome) (*outcome, error) {
	if out == nil {
		out = newOutcome()
	}
	decode, apply, err := probeDataPlane(op.src, op.segmented, 3)
	if err != nil {
		return nil, err
	}
	var ratios []float64
	var layers []map[string]float64
	var ref *core.Result
	start := time.Now()
	for i := 0; i < e.pairs || time.Since(start) < 2*e.seconds; i++ {
		var plain, timed time.Duration
		for _, traced := range []bool{i%2 == 1, i%2 == 0} {
			out.attempted++
			if !traced {
				wall, res, err := op.untraced(ctx)
				if err != nil {
					return nil, fmt.Errorf("untraced analysis: %w", err)
				}
				plain, ref = wall, res
			} else {
				var l *spanLog
				if i == 0 {
					l = e.spans
				}
				wall, res, m, err := op.traced(ctx, l)
				if err != nil {
					return nil, fmt.Errorf("traced analysis: %w", err)
				}
				timed = wall
				layers = append(layers, m)
				if ref != nil {
					if err := sameOutputs(ref, res); err != nil {
						return nil, err
					}
				}
			}
			if err := out.agree(op.digest()); err != nil {
				return nil, err
			}
		}
		ratios = append(ratios, float64(timed)/float64(plain))
	}
	for name := range layers[0] {
		var xs []float64
		for _, m := range layers {
			xs = append(xs, m[name])
		}
		out.metrics[name] = median(xs)
	}
	out.metrics["trace.decode_s"] = decode
	out.metrics["trace.apply_s"] = apply
	out.metrics["traced.overhead_pct"] = (median(ratios) - 1) * 100
	return out, nil
}

// probeDataPlane times a bare cursor drain of src and a replay into the
// shared state with no stages, reps times each, and returns the median
// decode seconds and the median replay seconds minus decode.
func probeDataPlane(src trace.MetaSource, segmented bool, reps int) (decode, apply float64, err error) {
	var dec, rep []float64
	for i := 0; i < reps; i++ {
		if segmented {
			dropFrameCache()
		}
		t0 := time.Now()
		cur, err := src.Open()
		if err != nil {
			return 0, 0, err
		}
		for {
			_, ok, err := cur.Next()
			if err != nil {
				cur.Close()
				return 0, 0, err
			}
			if !ok {
				break
			}
		}
		cur.Close()
		dec = append(dec, seconds(time.Since(t0)))

		if segmented {
			dropFrameCache()
		}
		t0 = time.Now()
		if _, err := trace.ReplaySource(src, trace.Hooks{}); err != nil {
			return 0, 0, err
		}
		rep = append(rep, seconds(time.Since(t0)))
	}
	return median(dec), median(rep) - median(dec), nil
}
