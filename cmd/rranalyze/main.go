// Command rranalyze runs the full multi-scale analysis pipeline on a trace
// file produced by rrgen and writes one TSV per figure panel into an output
// directory.
//
// Usage:
//
//	rranalyze -trace renren.trace -out figures/                    # every stage
//	rranalyze -trace renren.trace -out figures/ -only fig3c,fig5a  # only the stages these panels need
//	rranalyze -trace renren.trace -out figures/ -deltas 0.0001,0.01,0.04,0.1,0.3
//	rranalyze -trace renren.trace -out figures/ -checkpoint-dir ckpts -dist-days 150,225,297
//	rranalyze -trace grown.trace -out figures/ -checkpoint-dir ckpts -dist-days 150,225,297 -resume
//	rranalyze -trace renren.trace -validate -progress -out figures/
//	rranalyze -trace renren.seg -info -checkpoint-dir ckpts  # trace stats + checkpoint inventory
//	rranalyze -trace renren.trace -only fig8c -out -         # print the tables to stdout
//	rranalyze -list                                          # figure id -> producing stage
//
// Without -only every registered stage runs and all 30 panels are written;
// the Fig 4 panels need -deltas. -dist-days defaults to three late snapshot
// days of the trace (core.ParseDistDays, shared with rrserved). The days
// are part of the checkpoint fingerprint, so pin them across -resume runs
// over a growing trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rranalyze: ")

	tracePath := flag.String("trace", "", "input trace file (required)")
	outDir := flag.String("out", "figures", "output directory for per-figure tables, or - to print them to stdout, each followed by a blank line")
	format := flag.String("format", "tsv", "output format for figure tables: tsv or json (sets the file extension)")
	only := flag.String("only", "", "comma-separated figure ids; plans and runs exactly the stages they need")
	deltas := flag.String("deltas", "", "comma-separated Louvain δ values for the Fig 4 sweep, e.g. 0.01,0.04,0.16")
	progress := flag.Bool("progress", false, "write a day/event progress line to stderr while the shared pass replays")
	checkpointDir := flag.String("checkpoint-dir", "", "write pipeline checkpoints into this directory at the -checkpoint-every cadence")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in days (0 = default 90; needs -checkpoint-dir)")
	checkpointFullEvery := flag.Int("checkpoint-full-every", 0, "tiered cadence: of every N checkpoints write 1 full and N-1 deltas against their predecessor (<=1 = all full)")
	checkpointKeep := flag.Int("checkpoint-keep", 0, "retain only the newest N full checkpoints (plus their delta chains) under this config's fingerprint (0 = keep everything)")
	resume := flag.Bool("resume", false, "resume from the latest compatible checkpoint in -checkpoint-dir instead of replaying from day 0")
	list := flag.Bool("list", false, "print every figure id with the stage that produces it, and exit")
	info := flag.Bool("info", false, "print trace stats (segment/compression figures for segmented traces) and the -checkpoint-dir inventory, then exit")
	snapshotEvery := flag.Int("snapshot-every", 0, "community snapshot cadence in days (0 = default 3)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "CPU budget: at most N goroutines do analysis work at once, the replay included; 1 runs fully sequentially (results are bit-identical at any count)")
	distDays := flag.String("dist-days", "", "comma-separated days for size distributions (default: three late snapshot days)")
	validate := flag.Bool("validate", false, "stream-validate the trace's structural invariants before analyzing")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the pipeline run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the pipeline run to this file")
	flag.Parse()

	if *list {
		// The id -> stage mapping comes from the planner registry, so a
		// newly registered stage shows up here without touching this tool.
		for _, id := range core.AllFigures {
			stage, err := core.StageFor(id)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s\t%s\n", id, stage)
		}
		return
	}
	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// The checkpoint flags act only on a checkpoint directory; without one
	// they would be ignored silently.
	if *checkpointDir == "" {
		switch {
		case *resume:
			log.Fatal("-resume needs -checkpoint-dir")
		case *checkpointEvery != 0:
			log.Fatal("-checkpoint-every needs -checkpoint-dir")
		case *checkpointFullEvery != 0:
			log.Fatal("-checkpoint-full-every needs -checkpoint-dir")
		case *checkpointKeep != 0:
			log.Fatal("-checkpoint-keep needs -checkpoint-dir")
		}
	}
	outFormat, err := core.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
	}
	// The trace is never loaded: every analysis pass streams it off disk
	// through a cursor, so memory stays O(state). OpenTrace sniffs the
	// magic, so flat and compressed segmented traces both analyze.
	src, err := trace.OpenTrace(*tracePath)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	if *info {
		printInfo(src, *tracePath, *checkpointDir)
		return
	}
	if *validate {
		if err := trace.ValidateSource(src); err != nil {
			log.Fatalf("validate: %v", err)
		}
		log.Print("trace validated")
	}
	meta := src.Meta()
	log.Printf("opened %s: %d nodes, %d edges, %d days, merge day %d",
		*tracePath, meta.Nodes, meta.Edges, meta.Days, meta.MergeDay)

	cfg := core.DefaultConfig()
	if *workers < 1 {
		log.Fatalf("-workers must be >= 1, got %d", *workers)
	}
	cfg.Workers = *workers
	if *snapshotEvery > 0 {
		cfg.Community.SnapshotEvery = int32(*snapshotEvery)
	}
	if cfg.Community.SizeDistDays, err = core.ParseDistDays(*distDays, meta.Days, cfg.Community); err != nil {
		log.Fatal(err)
	}
	if *deltas != "" {
		vs, err := core.ParseDeltaSweep(*deltas)
		if err != nil {
			log.Fatal(err)
		}
		cfg.DeltaSweep = vs
	}
	if *progress {
		cfg.OnProgress = func(day int32, events int64) {
			fmt.Fprintf(os.Stderr, "\rday %d/%d, %d events", day, meta.Days, events)
		}
	}
	// The checkpointed state plane: write day-addressed snapshots while
	// analyzing, and resume from the latest compatible one after the
	// trace file gained days (see README's incremental workflow).
	cfg.CheckpointDir = *checkpointDir
	cfg.CheckpointEvery = int32(*checkpointEvery)
	cfg.CheckpointFullEvery = *checkpointFullEvery
	cfg.CheckpointKeep = *checkpointKeep
	cfg.Resume = *resume

	// An explicit -only list plans the minimal stage set; otherwise a nil
	// plan runs every stage. SIGINT cancels the replay at its next day
	// boundary.
	var plan *core.FigurePlan
	figs := core.AllFigures
	if *only != "" {
		var ids []string
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		if plan, err = core.Plan(cfg, ids...); err != nil {
			log.Fatalf("plan: %v", err)
		}
		figs = plan.Figures()
		log.Printf("plan: stages %s", strings.Join(plan.Stages(), ", "))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling brackets the pipeline run explicitly rather than via
	// defers: log.Fatalf exits without running defers, which would leave
	// a truncated CPU profile on exactly the failing runs one wants to
	// inspect.
	var cpuOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpuOut = f
	}

	res, err := core.RunPlan(ctx, src, cfg, plan)
	if *progress {
		fmt.Fprintln(os.Stderr) // finish the \r progress line
	}
	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil {
			log.Printf("cpuprofile: %v", cerr)
		}
	}
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
	if res.ResumedFromDay >= 0 {
		if res.ResumedFromDay >= meta.Days-1 {
			log.Printf("resumed from checkpoint day %d (nothing newer to replay)", res.ResumedFromDay)
		} else {
			log.Printf("resumed from checkpoint day %d (replayed days %d..%d)", res.ResumedFromDay, res.ResumedFromDay+1, meta.Days-1)
		}
	} else if *resume {
		log.Printf("no compatible checkpoint in %s; replayed from day 0 (checkpoints bind the exact config — e.g. the default -dist-days follow the trace length, so pin -dist-days across incremental runs)", *checkpointDir)
	}
	// -out - prints the tables in plan order, each followed by a blank
	// line, and moves the summary line to stderr.
	toStdout, report := *outDir == "-", os.Stdout
	if toStdout {
		report = os.Stderr
	} else if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatalf("mkdir: %v", err)
	}
	written := 0
	for _, id := range figs {
		tab, err := res.Figure(id)
		if err != nil {
			log.Printf("skipping %s: %v", id, err)
			continue
		}
		if toStdout {
			if err = tab.Write(os.Stdout, outFormat); err == nil {
				_, err = fmt.Println()
			}
		} else {
			err = writeFile(filepath.Join(*outDir, id+outFormat.Ext()), tab, outFormat)
		}
		if err != nil {
			log.Fatalf("write %s: %v", id, err)
		}
		written++
	}
	fmt.Fprintf(report, "wrote %d figure tables to %s\n", written, *outDir)
}

// writeFile writes one figure table to path.
func writeFile(path string, tab *core.Table, format core.Format) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.Write(out, format); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// printInfo renders the -info report: trace identity, storage shape
// (segment and compression figures when the trace is segmented), and the
// checkpoint inventory when -checkpoint-dir names one.
func printInfo(src *trace.FileSource, path, ckptDir string) {
	meta := src.Meta()
	fmt.Printf("trace %s\n", path)
	fmt.Printf("  days %d, nodes %d (%d xiaonei / %d 5q / %d new), edges %d, merge day %d, seed %d\n",
		meta.Days, meta.Nodes, meta.Xiaonei, meta.FiveQ, meta.NewUsers, meta.Edges, meta.MergeDay, meta.Seed)
	if s := src.Stats(); s.Segmented {
		ratio := 0.0
		if s.RawBytes > 0 {
			ratio = 100 * float64(s.CompressedBytes) / float64(s.RawBytes)
		}
		fmt.Printf("  format segmented: %d segments, %d events, %d bytes raw -> %d compressed (%.1f%%), day index %v\n",
			s.Segments, s.Events, s.RawBytes, s.CompressedBytes, ratio, s.Indexed)
	} else {
		fmt.Println("  format flat")
	}
	if ckptDir == "" {
		return
	}
	infos, err := core.ListCheckpoints(storage.NewDirBackend(ckptDir))
	if err != nil {
		log.Fatalf("checkpoint inventory: %v", err)
	}
	fmt.Printf("checkpoints %s (%d objects)\n", ckptDir, len(infos))
	for _, ci := range infos {
		kind := "full"
		if ci.Delta {
			kind = fmt.Sprintf("delta of day %d", ci.ParentDay)
		}
		line := fmt.Sprintf("  %-24s day %4d  %10d bytes  fingerprint %016x  %s",
			ci.Name, ci.Day, ci.Size, ci.ConfigHash, kind)
		if ci.Err != "" {
			line = fmt.Sprintf("  %-24s day %4d  %10d bytes  UNREADABLE: %s", ci.Name, ci.Day, ci.Size, ci.Err)
		}
		fmt.Println(line)
	}
}
