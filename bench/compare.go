package main

import (
	"fmt"
	"io"
	"log"
	"math"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// Verdicts of a comparison row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one end-to-end metric of one workload between the
// parent's runs and the change's runs, paired by position (run i of each
// side ran back to back, alternating which went first):
//
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither side), and the medians differ
//     in the change's favour by more than the parent's interquartile
//     range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound, as a share of the parent's median;
//   - unresolved: either side's spread (interquartile range over median)
//     is wider than the bound, unless every change run reads better than
//     every parent run;
//   - unchanged: otherwise.
func judge(m metricDef, parent, change []float64) (verdict string, wins, pairs int) {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	q1, _, q3 := quartiles(parent)
	gain := better(mc, mp) && math.Abs(mc-mp) > q3-q1
	if pairs >= minPairs && wins*10 >= 9*pairs && gain {
		return improved, wins, pairs
	}
	worse := (mc - mp) / math.Abs(mp)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return regressed, wins, pairs
	}
	if spread(parent) > m.Bound || spread(change) > m.Bound {
		allBetter := len(parent) > 0 && len(change) > 0
		for _, c := range change {
			for _, p := range parent {
				allBetter = allBetter && better(c, p)
			}
		}
		if !allBetter {
			return unresolved, wins, pairs
		}
	}
	return unchanged, wins, pairs
}

// compareFiles prints one row per workload and end-to-end metric of two
// results files, plus each workload's failure ratio, and exits non-zero
// if anything regressed.
func compareFiles(def *definition, parentPath, changePath string, w io.Writer) int {
	parent, err := readResults(parentPath)
	if err != nil {
		log.Print(err)
		return 1
	}
	change, err := readResults(changePath)
	if err != nil {
		log.Print(err)
		return 1
	}
	status := 0
	fmt.Fprintf(w, "%-14s %-18s %12s %25s %12s %25s %7s  %s\n",
		"workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "wins", "verdict")
	for _, wl := range def.Workloads {
		p, c := untracedRuns(parent, wl.Name), untracedRuns(change, wl.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			verdict, wins, pairs := judge(m, pv, cv)
			if verdict == regressed {
				status = 1
			}
			pq1, _, pq3 := quartiles(pv)
			cq1, _, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %3d/%-3d  %s\n",
				wl.Name, m.Name, median(pv), pq1, pq3, median(cv), cq1, cq3, wins, pairs, verdict)
		}
		pf, cf := failRatio(p), failRatio(c)
		verdict := unchanged
		if cf > pf {
			verdict, status = regressed, 1
		}
		fmt.Fprintf(w, "%-14s %-18s %12.5g %25s %12.5g %25s %7s  %s\n",
			wl.Name, "fail_ratio", pf, "", cf, "", "", verdict)
	}
	return status
}

func untracedRuns(r *resultsFile, workload string) []runRecord {
	var out []runRecord
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == 0 {
			out = append(out, run)
		}
	}
	return out
}

func values(runs []runRecord, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric]
	}
	return out
}

// failRatio is failed over attempted operations across runs; an incorrect
// run fails all of its operations.
func failRatio(runs []runRecord) float64 {
	var failed, attempted int64
	for _, r := range runs {
		attempted += r.Attempted
		if r.Correct {
			failed += r.Failed
		} else {
			failed += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}
