package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/trace"
)

var formats = []core.Format{core.FormatTSV, core.FormatJSON}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// serveConfig is the daemon's warm plan: the analysis config plus a
// checkpoint every 7 days.
func serveConfig(meta trace.Meta) core.Config {
	cfg := analysisConfig(meta)
	cfg.CheckpointEvery = 7
	return cfg
}

// daemon is a warm serve.Server listening on loopback.
type daemon struct {
	srv    *serve.Server
	tailer *ingest.Tailer // serve-ingest only
	hs     *http.Server
	done   chan struct{}
	base   string
}

// startDaemon loads the warm state the way `rrserved -checkpoint-dir ...
// -checkpoint-full-every 5 -checkpoint-keep 2` does (with -follow for
// serve-ingest); the load is the workload's set-up.
func startDaemon(ctx context.Context, path, ckptDir string, cfg core.Config, follow bool) (*daemon, error) {
	// Records are formatted and discarded: the request path pays for its
	// log line as it does at rrserved's default level.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opt := serve.Options{
		TracePath:           path,
		CheckpointDir:       ckptDir,
		CheckpointFullEvery: 5,
		CheckpointKeep:      2,
		Config:              cfg,
		CacheBytes:          64 << 20,
		Log:                 logger,
	}
	d := &daemon{}
	if follow {
		d.tailer = ingest.NewTailer(ingest.Options{Path: path, Log: logger})
		opt.Open = d.tailer.OpenSealed
	}
	srv, err := serve.NewServer(ctx, opt)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// listen serves the daemon over HTTP on a loopback port.
func (d *daemon) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.done = make(chan struct{})
	d.base = "http://" + ln.Addr().String()
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return nil
}

// close stops the listener, waits for it, and closes the server.
func (d *daemon) close() {
	if d.hs != nil {
		d.hs.Close()
		<-d.done
	}
	d.srv.Close()
}

// client is one closed-loop HTTP client on one connection.
type client struct {
	http  *http.Client
	base  string
	paths []string // request k%len(paths): panel k/2, tsv then json
	buf   bytes.Buffer
}

func newClient(base string, figs []string) *client {
	c := &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base: base,
	}
	for _, id := range figs {
		for _, f := range formats {
			c.paths = append(c.paths, "/figures/"+id+"?format="+string(f))
		}
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// readSample is one request as the client saw it, kept small: a run
// keeps hundreds of thousands, and their memory counts in peak RSS.
type readSample struct {
	lat  time.Duration
	path int32  // index into client.paths
	day  int32  // X-Trace-Day: the generation that answered
	crc  uint32 // of the body
	hit  bool
	ok   bool
}

// get fetches path k and returns the sample and when the request
// started; the body stays in c.buf until the next call.
func (c *client) get(ctx context.Context, k int) (readSample, time.Time) {
	start := time.Now()
	s := readSample{path: int32(k)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+c.paths[k], nil)
	if err != nil {
		return s, start
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return s, start
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	day, derr := strconv.Atoi(resp.Header.Get("X-Trace-Day"))
	s.day = int32(day)
	s.hit = resp.Header.Get("X-Cache") == "hit"
	s.crc = crc32.Checksum(c.buf.Bytes(), castagnoli)
	s.ok = err == nil && derr == nil && resp.StatusCode == http.StatusOK
	return s, start
}

// statz fetches the fields of /statz the benchmark reads.
func (c *client) statz(ctx context.Context) (*statz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/statz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("statz: %w", err)
	}
	return &s, nil
}

type statz struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Snapshot struct {
		Figures int `json:"figures"`
		Carried int `json:"carried"`
	} `json:"snapshot"`
	Storage struct {
		LastCheckpoint *struct {
			Delta   bool    `json:"delta"`
			Bytes   int64   `json:"bytes"`
			WriteMs float64 `json:"write_ms"`
		} `json:"last_checkpoint"`
	} `json:"storage"`
}

// expected holds the CRC-32C of every body each published generation
// serves — Table.Write of its snapshot's panel — so the reader can check
// every response as it arrives without keeping it.
type expected struct {
	figs []string
	mu   sync.Mutex
	crcs map[[2]int32]uint32 // by (day, path index)
}

func newExpected(figs []string) *expected {
	return &expected{figs: figs, crcs: map[[2]int32]uint32{}}
}

// body is Table.Write of path k's panel in snap.
func body(snap *serve.Snapshot, id string, k int) ([]byte, error) {
	tab, err := snap.Res.Figure(id)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = tab.Write(&b, formats[k%2])
	return b.Bytes(), err
}

// add records what a published generation serves.
func (x *expected) add(snap *serve.Snapshot) error {
	crcs := make([]uint32, 2*len(x.figs))
	for k := range crcs {
		b, err := body(snap, x.figs[k/2], k)
		if err != nil {
			return err
		}
		crcs[k] = crc32.Checksum(b, castagnoli)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for k, c := range crcs {
		x.crcs[[2]int32{snap.Day, int32(k)}] = c
	}
	return nil
}

// check reports whether a response is what its generation serves; known
// is false while that generation has not been added yet.
func (x *expected) check(s readSample) (match, known bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	want, known := x.crcs[[2]int32{s.day, s.path}]
	return known && s.crc == want, known
}

// reads is what a read loop keeps: the latency of every good response,
// split by cache outcome, and the responses that arrived before their
// generation was added to the expectations.
type reads struct {
	hit, miss         []float64 // ms
	pending           []readSample
	attempted, failed int64
}

func (r *reads) record(s readSample, x *expected) {
	r.attempted++
	match, known := x.check(s)
	switch {
	case !s.ok || (known && !match):
		r.failed++
	case !known:
		r.pending = append(r.pending, s)
	case s.hit:
		r.hit = append(r.hit, millis(s.lat))
	default:
		r.miss = append(r.miss, millis(s.lat))
	}
}

// settle checks the pending responses once every generation is known.
func (r *reads) settle(x *expected) {
	pending := r.pending
	r.pending = nil
	for _, s := range pending {
		r.attempted--
		if _, known := x.check(s); !known {
			s.ok = false // served a generation that was never published
		}
		r.record(s, x)
	}
}

func (r *reads) all() []float64 { return append(append([]float64(nil), r.hit...), r.miss...) }

// readLoop sends requests back to back, cycling through every panel in
// both formats, until stop is closed or the deadline passes; in a traced
// run it records every 100th request as a span.
func readLoop(ctx context.Context, c *client, x *expected, deadline time.Time, stop <-chan struct{}, l *spanLog) *reads {
	r := &reads{}
	for k := 0; ; k = (k + 1) % len(c.paths) {
		select {
		case <-stop:
			return r
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return r
		}
		s, start := c.get(ctx, k)
		r.record(s, x)
		if l != nil && r.attempted%100 == 0 {
			l.add(0, "request", start, start.Add(s.lat),
				map[string]any{"path": c.paths[k], "hit": s.hit, "day": s.day})
		}
	}
}

// runServe drives serve-read and serve-ingest.
func runServe(ctx context.Context, e *runEnv) (*outcome, error) {
	out := newOutcome()
	ingesting := e.w.kind == serveIngestKind
	path := filepath.Join(e.input, traceName)
	if ingesting {
		live := filepath.Join(e.scratch, "live.trace")
		if err := copyFile(path, live); err != nil {
			return nil, err
		}
		path = live
	}
	tf, err := trace.OpenTrace(path)
	if err != nil {
		return nil, err
	}
	cfg := serveConfig(tf.Meta())

	var prog *progressClock
	var ckptReads *readClock
	setups := e.w.setups
	if e.traced {
		// The layers of the warm plan: the same analysis without the
		// checkpoint plane, timed from outside.
		plan, err := core.Plan(cfg)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(e.scratch, "figures")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		op := &analysisOp{src: tf, cfg: cfg, plan: plan, figs: plan.Figures(), dir: dir}
		if _, err := tracedAnalysis(ctx, e, op, out); err != nil {
			return nil, err
		}
		out.digest = ""
		prog, setups = &progressClock{}, 1
		cfg.OnProgress = prog.mark
	}

	var d *daemon
	var loads []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			// Return the discarded daemon's memory, so peak RSS is that
			// of one warm load and not of several.
			d.close()
			d = nil
			debug.FreeOSMemory()
		}
		ckptDir := filepath.Join(e.scratch, "ckpt"+strconv.Itoa(i))
		if e.traced {
			ckptReads = &readClock{Backend: storage.NewDirBackend(ckptDir)}
			cfg.CheckpointBackend = ckptReads
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, path, ckptDir, cfg, ingesting)
		if err != nil {
			return nil, fmt.Errorf("warm load: %w", err)
		}
		loads = append(loads, seconds(time.Since(t0)))
	}
	if err := d.listen(); err != nil {
		d.close()
		return nil, err
	}
	defer d.close()
	out.metrics["setup_s"] = median(loads)

	snap := d.srv.Snapshot()
	figs := snap.Res.Figures()
	x := newExpected(figs)
	if err := x.add(snap); err != nil {
		return nil, err
	}
	reader := newClient(d.base, figs)
	defer reader.close()
	statzClient := newClient(d.base, nil)
	defer statzClient.close()

	// Priming: every panel in both formats, each checked byte for byte.
	primed := &reads{}
	dg := newDigest()
	for k, p := range reader.paths {
		s, _ := reader.get(ctx, k)
		primed.record(s, x)
		if want, err := body(snap, figs[k/2], k); err != nil || !bytes.Equal(reader.buf.Bytes(), want) {
			out.wrong("%s served %d bytes that differ from Table.Write of the published snapshot", p, reader.buf.Len())
		}
		dg.add(p, reader.buf.Bytes())
	}
	if !ingesting {
		out.digest = dg.sum()
	}
	if e.traced {
		out.metrics["serve.encode_us"] = encodeMicros(snap, figs)
		if st, err := statzClient.statz(ctx); err == nil {
			checkpointLayers(out.metrics, []checkpointStat{lastCheckpoint(st)})
		}
	}

	before, err := statzClient.statz(ctx)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var loop *reads
	var ops float64
	extended := filepath.Join(e.input, extendedName)
	if ingesting {
		g, err := newIngest(d, path, extended, e.seconds, e.spans)
		if err != nil {
			return nil, err
		}
		if e.traced {
			g.prog, g.ckptReads, g.statz = prog, ckptReads, statzClient
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop = readLoop(ctx, reader, x, t0.Add(childTimeout), stop, e.spans)
		}()
		res, err := g.run(ctx, x)
		close(stop)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		out.attempted += res.attempted
		out.failed += res.failed
		ops = float64(len(res.applies))
		out.metrics["latency_p50_ms"] = percentile(res.visible, 50)
		out.metrics["latency_tail_ms"] = percentile(res.visible, 75)
		if e.traced {
			ingestLayers(out.metrics, res)
		}
	} else {
		// One closed-loop client keeps one request in flight, so the read
		// phase runs on one P: client and handler then take turns on one
		// CPU, and the latency is the request path's own, not that of
		// waking the other, idle CPU, which a shared host stretches at
		// random.
		procs := runtime.GOMAXPROCS(1)
		loop = readLoop(ctx, reader, x, t0.Add(e.seconds), nil, e.spans)
		runtime.GOMAXPROCS(procs)
		ops = float64(loop.attempted)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	after, err := statzClient.statz(ctx)
	if err != nil {
		return nil, err
	}

	loop.settle(x)
	out.attempted += primed.attempted + loop.attempted
	out.failed += primed.failed + loop.failed
	if loop.failed > 0 {
		log.Printf("%d of %d responses failed: an error status, or a body that differs from its generation's Table.Write", loop.failed, loop.attempted)
	}
	lats := loop.all()
	if !ingesting {
		out.metrics["latency_p50_ms"] = percentile(lats, 50)
		out.metrics["latency_tail_ms"] = percentile(lats, 90)
	}
	out.metrics["throughput_per_s"] = float64(len(lats)) / elapsed.Seconds()

	if ingesting {
		if err := finalCheck(ctx, d, reader, x, path, extended, cfg, out); err != nil {
			return nil, err
		}
	}
	if e.traced {
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		out.metrics["serve.hit_p50_us"] = percentile(append(primed.hit, loop.hit...), 50) * 1e3
		out.metrics["serve.miss_p50_us"] = percentile(append(primed.miss, loop.miss...), 50) * 1e3
		out.metrics["serve.hit_ratio"] = ratio(hits, hits+misses)
		out.metrics["runtime.alloc_mb"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), ops)
		out.metrics["runtime.gc_cycles"] = ratio(float64(ms1.NumGC-ms0.NumGC), ops)
		out.metrics["runtime.gc_pause_ms"] = ratio(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, ops)
		for _, name := range []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s"} {
			delete(out.metrics, name)
		}
	}
	return out, nil
}

// finalCheck requires the appended file to equal the extended trace
// generated from scratch, and every panel the daemon serves after the
// last day landed to equal, byte for byte, a from-zero analysis of that
// file; the served panels are the run's digest.
func finalCheck(ctx context.Context, d *daemon, c *client, x *expected, path, extended string, cfg core.Config, out *outcome) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(extended)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		out.wrong("appended trace differs from the same seed generated to the longer horizon")
	}
	final, err := trace.OpenTrace(path)
	if err != nil {
		return err
	}
	if last, day := final.Meta().Days-1, d.srv.Snapshot().Day; last != day {
		out.wrong("daemon published day %d, the final file ends on day %d", day, last)
	}
	cfg.OnProgress = nil
	ref, err := core.RunPlan(ctx, final, cfg, nil)
	if err != nil {
		return fmt.Errorf("from-zero analysis: %w", err)
	}
	dg := newDigest()
	for k, p := range c.paths {
		s, _ := c.get(ctx, k)
		out.attempted++
		tab, err := ref.Figure(x.figs[k/2])
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if err := tab.Write(&b, formats[k%2]); err != nil {
			return err
		}
		if !s.ok || !bytes.Equal(c.buf.Bytes(), b.Bytes()) {
			out.wrong("%s after the last day differs from a from-zero analysis of the final file", p)
		}
		dg.add(p, c.buf.Bytes())
	}
	out.digest = dg.sum()
	return nil
}

// encodeMicros is the median time of one Table.Write of a snapshot panel,
// over every panel in both formats, three times each.
func encodeMicros(snap *serve.Snapshot, figs []string) float64 {
	var xs []float64
	var b bytes.Buffer
	for round := 0; round < 3; round++ {
		for _, id := range figs {
			tab, err := snap.Res.Figure(id)
			if err != nil {
				continue
			}
			for _, f := range formats {
				b.Reset()
				t0 := time.Now()
				tab.Write(&b, f)
				xs = append(xs, micros(time.Since(t0)))
			}
		}
	}
	return median(xs)
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}
