// Quickstart: generate a synthetic Renren-like trace, run the multi-scale
// pipeline, and print a handful of headline numbers from each scale.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	// A small two-network scenario: Xiaonei grows from day 0, the 5Q
	// network merges in on day 150, the trace ends on day 300.
	gcfg := repro.SmallGenConfig()
	tr, err := repro.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	m := tr.Meta
	fmt.Printf("trace: %d days, %d nodes (%d xiaonei, %d 5q, %d new), %d edges\n",
		m.Days, m.Nodes, m.Xiaonei, m.FiveQ, m.NewUsers, m.Edges)

	// The whole paper in one call: a nil plan runs every stage over one
	// shared replay of the trace.
	ctx := context.Background()
	res, err := repro.RunPlan(ctx, tr.Source(), repro.DefaultPipeline(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// Network level (§2): final first-order metrics.
	last := res.Metrics[len(res.Metrics)-1]
	fmt.Printf("network level: avg degree %.1f, clustering %.3f, assortativity %+.3f\n",
		last.AvgDegree, last.Clustering, last.Assort)

	// Node level (§3): preferential-attachment strength.
	s := res.Alpha.Samples
	fmt.Printf("node level: alpha decays %.2f -> %.2f (higher-degree rule), final MSE %.1e\n",
		s[0].AlphaHigher, s[len(s)-1].AlphaHigher, res.Alpha.FinalMSEHigher)

	// Community level (§4): structure and dynamics.
	cl := res.Community.Stats[len(res.Community.Stats)-1]
	fmt.Printf("community level: %d communities, modularity %.2f, top-5 cover %.0f%%\n",
		cl.NumCommunities, cl.Modularity, 100*cl.Top5Coverage)

	// Network level event (§5): the merge.
	fmt.Printf("merge: %.0f%% of 5Q accounts silent at the merge (duplicates), "+
		"inter-OSN distance ends at %.2f hops\n",
		100*res.Merge.InactiveAtMergeFiveQ,
		res.Merge.Distances[len(res.Merge.Distances)-1].XiaoneiTo5Q)

	// Every figure of the paper is available as a table:
	tab, err := res.Figure("fig2c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig2c (%s): %d rows, columns %v\n", tab.Title, len(tab.Rows), tab.Columns)

	// When only one panel is needed, skip the full pipeline: RunFigures
	// plans the minimal stage set for the request (here just the metrics
	// stage — one replay pass instead of the whole multi-scale analysis).
	one, err := repro.RunFigures(ctx, tr.Source(), repro.DefaultPipeline(), "fig1a")
	if err != nil {
		log.Fatal(err)
	}
	tab, err = one.Figure("fig1a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig1a on demand (%s): %d rows\n", tab.Title, len(tab.Rows))
}
