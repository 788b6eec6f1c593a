// Command rrgen generates a synthetic Renren-like dynamic-network trace and
// writes it in the binary trace format.
//
// Usage:
//
//	rrgen -preset default -seed 1 -out renren.trace
//	rrgen -preset small -days 250 -out small.trace
//	rrgen -preset default -days 801 -out extended.trace  # same seed: 771-day prefix unchanged
//	rrgen -preset default -merge-day 300 -out early.trace
//	rrgen -preset large -out big.trace -check   # validate off disk after writing
//	rrgen -preset default -days 801 -append -out renren.trace  # extend in place: days 771..800 appended
//	rrgen -preset default -compress -out renren.seg  # compressed segmented container (immutable)
//
// -append extends an existing trace file in place instead of rewriting
// it: the prefix days are verified against a re-simulation (any config
// drift aborts before a byte is written) and only the new days' events
// are encoded, flushed at each day barrier so a concurrent `rrserved`
// picks the days up as they seal. The extended file is byte-identical
// to a from-scratch generation at the longer horizon.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rrgen: ")

	preset := flag.String("preset", "default", "config preset: default (771 days, ~10^5 nodes), small, or large (~10^6 nodes)")
	seed := flag.Int64("seed", 1, "generator seed")
	days := flag.Int("days", 0, "override trace length in days (0 = preset value); extending the horizon keeps the shorter trace as a prefix, which is what the incremental checkpoint-resume workflow appends against")
	maxNodes := flag.Int("max-nodes", 0, "override node cap (0 = preset value)")
	noMerge := flag.Bool("no-merge", false, "disable the 5Q network merge event")
	mergeDay := flag.Int("merge-day", 0, "override the 5Q merge day on the chosen preset (0 = preset value; must be < -days and needs a preset with a merge)")
	out := flag.String("out", "renren.trace", "output file")
	appendMode := flag.Bool("append", false, "extend the existing -out file in place to the longer -days horizon (same seed and knobs; only the new days are simulated onto disk)")
	compress := flag.Bool("compress", false, "write the compressed segmented container instead of the flat format (typically well under half the size; replays everywhere, but cannot be -append-extended later)")
	check := flag.Bool("check", false, "stream-validate the written trace's structural invariants (one extra pass off disk)")
	flag.Parse()

	var cfg gen.Config
	switch *preset {
	case "default":
		cfg = gen.DefaultConfig()
	case "small":
		cfg = gen.SmallConfig()
	case "large":
		cfg = gen.LargeConfig()
	default:
		log.Fatalf("unknown preset %q (want default, small, or large)", *preset)
	}
	cfg.Seed = *seed
	if *days > 0 {
		cfg.Days = int32(*days)
		if cfg.Merge != nil && cfg.Merge.Day >= cfg.Days {
			cfg.Merge = nil
		}
	}
	if *maxNodes > 0 {
		cfg.MaxNodes = *maxNodes
	}
	if *noMerge {
		cfg.Merge = nil
	}
	if *mergeDay > 0 {
		switch {
		case *noMerge:
			log.Fatal("-merge-day and -no-merge are mutually exclusive")
		case cfg.Merge == nil:
			log.Fatalf("-merge-day %d: the trimmed %d-day horizon has no merge; raise -days or drop -merge-day", *mergeDay, cfg.Days)
		case int32(*mergeDay) >= cfg.Days:
			log.Fatalf("-merge-day %d is outside the %d-day horizon", *mergeDay, cfg.Days)
		case int32(*mergeDay) <= cfg.Merge.FiveQStart:
			log.Fatalf("-merge-day %d is not after the 5Q founding day %d", *mergeDay, cfg.Merge.FiveQStart)
		}
		cfg.Merge.Day = int32(*mergeDay)
	}

	// Stream the simulation straight into the trace file: the event
	// slice is never materialized, so the large preset's ~10^7 events
	// cost generator-state memory and one file. -append reuses the
	// existing file's bytes as the simulated prefix.
	var m trace.Meta
	var err error
	verb := "wrote"
	switch {
	case *appendMode:
		if *days <= 0 {
			log.Fatal("-append needs -days set past the existing file's horizon")
		}
		if *compress {
			log.Fatal("-append and -compress are mutually exclusive: segmented traces are immutable once finalized")
		}
		m, err = gen.AppendToFile(cfg, *out)
		verb = "extended"
	case *compress:
		m, err = gen.GenerateToSegFile(cfg, *out)
	default:
		m, err = gen.GenerateToFile(cfg, *out)
	}
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	fmt.Printf("%s %s: %d days, %d nodes (%d xiaonei / %d 5q / %d new), %d edges, merge day %d\n",
		verb, *out, m.Days, m.Nodes, m.Xiaonei, m.FiveQ, m.NewUsers, m.Edges, m.MergeDay)

	if *check {
		// Validation replays the file through a cursor, so even the large
		// preset's ~10^7 events are checked in O(state) memory. OpenTrace
		// sniffs the magic, so flat and segmented outputs both validate.
		fs, err := trace.OpenTrace(*out)
		if err != nil {
			log.Fatalf("check: %v", err)
		}
		if err := trace.ValidateSource(fs); err != nil {
			log.Fatalf("check: %v", err)
		}
		fmt.Println("trace validated")
	}
}
