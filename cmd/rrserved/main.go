// Command rrserved is the long-lived figure-serving daemon: it loads a
// trace's warm analysis state once (resuming the newest compatible
// checkpoint when -checkpoint-dir is set), then serves every figure panel
// of the paper over HTTP as TSV or JSON — repeat fetches are O(cache
// lookup), not O(replay).
//
// Usage:
//
//	rrserved -trace renren.trace -checkpoint-dir ckpts -addr :8080
//	curl localhost:8080/figures/fig1a
//	curl "localhost:8080/figures/fig4a?delta=0.01,0.04&format=json"
//	curl localhost:8080/statz
//	curl -X POST localhost:8080/refresh   # after the trace gained days
//
// With -follow the daemon tail-follows a trace a writer is still
// appending to (e.g. `rrgen -append` in another process): every newly
// sealed day is detected by a cheap tail probe, applied through the
// incremental checkpoint resume, and republished — served figures stay
// continuously fresh, and /statz reports the ingest lag:
//
//	rrserved -trace renren.trace -checkpoint-dir ckpts -follow -poll 2s
//
// The tiered checkpoint cadence keeps the state plane's footprint flat
// under -follow: most checkpoints become small deltas against their
// predecessor, and retention prunes chains the resume can no longer pick:
//
//	rrserved -trace renren.trace -checkpoint-dir ckpts -follow \
//	    -checkpoint-full-every 4 -checkpoint-keep 2
//
// See DESIGN.md §8 for the serving architecture and §9 for the live
// ingest plane.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "input trace file (required)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	checkpointDir := flag.String("checkpoint-dir", "", "checkpointed state plane: resume the warm pass from here and write new checkpoints as it advances")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in days (0 = default 90; needs -checkpoint-dir)")
	checkpointFullEvery := flag.Int("checkpoint-full-every", 0, "tiered cadence: of every N checkpoints write 1 full and N-1 deltas against their predecessor (<=1 = all full)")
	checkpointKeep := flag.Int("checkpoint-keep", 0, "retain only the newest N full checkpoints (plus their delta chains) under this config's fingerprint (0 = keep everything)")
	deltas := flag.String("deltas", "0.0001,0.01,0.04,0.1,0.3", "warm Louvain δ grid for the fig4 panels; requests with other δ-sets run cold plans")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "CPU budget of each plan run: at most N goroutines do its analysis work at once, the replay included; 1 runs it fully sequentially")
	cacheMB := flag.Int64("cache-mb", 64, "result cache cap in MiB")
	refreshEvery := flag.Duration("refresh-every", 0, "poll the trace file at this interval and republish when it gained days (0 = only explicit POST /refresh); the file must be finalized at every poll — for a file under a live writer use -follow")
	follow := flag.Bool("follow", false, "tail-follow a growing trace: probe for newly sealed days and republish as they land, tolerating in-progress writes and torn tails (mutually exclusive with -refresh-every)")
	poll := flag.Duration("poll", 500*time.Millisecond, "tail probe interval in -follow mode (backs off up to 10x while the file is idle)")
	snapshotEvery := flag.Int("snapshot-every", 0, "community snapshot cadence override")
	distDays := flag.String("dist-days", "", "comma-separated size-distribution days (default: three late snapshot days of the trace at startup, pinned so refreshes keep resuming)")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, or error")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the same listener (opt-in: profiling endpoints expose internals)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "err", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		log.Error("-workers must be >= 1", "got", *workers)
		os.Exit(2)
	}
	if *follow && *refreshEvery > 0 {
		log.Error("-follow and -refresh-every are mutually exclusive")
		os.Exit(2)
	}
	// The checkpoint flags act only on a checkpoint directory; without one
	// they would be ignored silently.
	if *checkpointDir == "" {
		var name string
		switch {
		case *checkpointEvery != 0:
			name = "-checkpoint-every"
		case *checkpointFullEvery != 0:
			name = "-checkpoint-full-every"
		case *checkpointKeep != 0:
			name = "-checkpoint-keep"
		}
		if name != "" {
			log.Error(name + " needs -checkpoint-dir")
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The trace probe. In -follow mode every open — including this
	// startup one — goes through the tail prober, which reads only the
	// sealed prefix of a file a writer may still be appending to; the
	// daemon waits for the first sealed day rather than failing when it
	// wins the race against the writer.
	var meta trace.Meta
	var tailer *ingest.Tailer
	var openSealed func() (trace.MetaSource, error)
	if *follow {
		tailer = ingest.NewTailer(ingest.Options{Path: *tracePath, Poll: *poll, Log: log})
		openSealed = tailer.OpenSealed
		src, err := openSealed()
		for err != nil {
			log.Info("waiting for a sealed trace prefix", "trace", *tracePath, "err", err)
			select {
			case <-ctx.Done():
				os.Exit(1)
			case <-time.After(*poll):
			}
			src, err = openSealed()
		}
		meta = src.Meta()
	} else {
		// OpenTrace sniffs the magic: flat and compressed segmented
		// traces are both servable (the latter only finalized, so not
		// under -follow, which tails a growing flat file).
		src, err := trace.OpenTrace(*tracePath)
		if err != nil {
			log.Error("open trace", "err", err)
			os.Exit(1)
		}
		meta = src.Meta()
	}

	// The warm configuration. SizeDistDays is pinned from the trace's
	// length at startup (not re-derived on refresh): the days are part of
	// the config fingerprint, and shifting them with every appended day
	// would invalidate the checkpoints the incremental refresh resumes
	// from — exactly the trap rranalyze's -dist-days docs warn about.
	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	cfg.CheckpointEvery = int32(*checkpointEvery)
	if *snapshotEvery > 0 {
		cfg.Community.SnapshotEvery = int32(*snapshotEvery)
	}
	vs, err := core.ParseDeltaSweep(*deltas)
	if err != nil {
		log.Error("bad -deltas", "err", err)
		os.Exit(2)
	}
	cfg.DeltaSweep = vs
	if cfg.Community.SizeDistDays, err = core.ParseDistDays(*distDays, meta.Days, cfg.Community); err != nil {
		log.Error("bad -dist-days", "err", err)
		os.Exit(2)
	}

	log.Info("loading warm state",
		"trace", *tracePath, "days", meta.Days, "nodes", meta.Nodes, "edges", meta.Edges,
		"checkpoint_dir", *checkpointDir)
	srv, err := serve.NewServer(ctx, serve.Options{
		TracePath:           *tracePath,
		CheckpointDir:       *checkpointDir,
		CheckpointFullEvery: *checkpointFullEvery,
		CheckpointKeep:      *checkpointKeep,
		Config:              cfg,
		CacheBytes:          *cacheMB << 20,
		Log:                 log,
		Open:                openSealed, // nil outside -follow: default finalized-file probe
	})
	if err != nil {
		log.Error("load", "err", err)
		os.Exit(1)
	}
	defer srv.Close()

	if *follow {
		applier := ingest.NewApplier(srv, tailer)
		srv.RegisterStatz("ingest", applier.Statz)
		go func() {
			if err := applier.Run(ctx); ctx.Err() == nil {
				log.Error("follow loop exited", "err", err)
			}
		}()
		log.Info("following", "trace", *tracePath, "poll", *poll)
	}

	if *refreshEvery > 0 {
		go func() {
			t := time.NewTicker(*refreshEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, _, err := srv.Refresh(ctx); err != nil && ctx.Err() == nil {
						log.Error("periodic refresh", "err", err)
					}
				}
			}
		}()
	}

	handler := srv.Handler()
	if *pprofFlag {
		// net/http/pprof registers on http.DefaultServeMux in its init;
		// mounting it explicitly keeps the endpoints off the default
		// (non-pprof) configuration.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	// Listen before logging, so "serving" names the bound address — the
	// real port when -addr asks for :0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: handler}
	go func() {
		<-ctx.Done()
		log.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()
	log.Info("serving", "addr", ln.Addr().String())
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve", "err", err)
		os.Exit(1)
	}
}
