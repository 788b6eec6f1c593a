package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/osnmerge"
	"repro/internal/stats"
	"repro/internal/svm"
)

// Table is one figure panel's data: the rows a plotting tool would consume
// to regenerate the paper's plot.
type Table struct {
	Figure  string
	Title   string
	Columns []string
	Rows    [][]float64
	// Notes carries scalar summary values (fitted exponents, MSEs,
	// overall fractions) keyed by name.
	Notes map[string]float64
}

// Equal reports whether two tables carry identical data: same identity,
// columns, rows, and notes, with float cells compared by bit pattern so
// NaN notes (an unfittable exponent) compare equal to themselves. The
// serving layer uses it at publish time to detect panels a day advance
// did not change.
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Figure != o.Figure || t.Title != o.Title ||
		len(t.Columns) != len(o.Columns) || len(t.Rows) != len(o.Rows) ||
		len(t.Notes) != len(o.Notes) {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range t.Rows {
		if len(t.Rows[i]) != len(o.Rows[i]) {
			return false
		}
		for j := range t.Rows[i] {
			if math.Float64bits(t.Rows[i][j]) != math.Float64bits(o.Rows[i][j]) {
				return false
			}
		}
	}
	for k, v := range t.Notes {
		ov, ok := o.Notes[k]
		if !ok || math.Float64bits(v) != math.Float64bits(ov) {
			return false
		}
	}
	return true
}

// AllFigures lists every reproducible panel id, in paper order.
var AllFigures = []string{
	"fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f",
	"fig2a", "fig2b", "fig2c",
	"fig3a", "fig3b", "fig3c",
	"fig4a", "fig4b", "fig4c",
	"fig5a", "fig5b", "fig5c",
	"fig6a", "fig6b", "fig6c",
	"fig7a", "fig7b", "fig7c",
	"fig8a", "fig8b", "fig8c",
	"fig9a", "fig9b", "fig9c",
}

// ErrUnknownFigure is returned for ids outside AllFigures.
var ErrUnknownFigure = errors.New("core: unknown figure id")

// ErrStageSkipped is returned when the figure's pipeline stage did not run.
var ErrStageSkipped = errors.New("core: required stage skipped or empty")

func svmOptions(seed int64) svm.Options {
	return svm.Options{Seed: seed, ClassWeighted: true}
}

// Figure extracts one panel's table from a pipeline result: a registry
// lookup resolves the id to its stage's emitter (ErrUnknownFigure for ids
// outside AllFigures), and panels pre-emitted by a demand-driven run are
// served from the keyed store without re-emitting. Emitters report
// ErrStageSkipped when their stage did not run or produced nothing.
//
// On a sealed Result (see Seal) every lookup — tables and skip errors
// alike — is a read of the pre-emitted store, so any number of goroutines
// may call Figure concurrently.
func (r *Result) Figure(id string) (*Table, error) {
	e, ok := figureRegistry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFigure, id)
	}
	if tab, ok := r.tables[id]; ok {
		return tab, nil
	}
	if err, ok := r.tableErrs[id]; ok {
		return nil, err
	}
	return e.emit(r)
}

// Seal pre-emits every panel into the keyed store — tables for panels the
// run's stages produced, the emit error (typically ErrStageSkipped) for
// the rest — and marks the Result immutable. After Seal, Figure never
// runs an emitter: it is a pure lookup in maps that are no longer
// written, so a sealed Result is safe for unsynchronized concurrent
// readers. This is the serving plane's snapshot contract (DESIGN.md §8):
// rrserved seals a Result before publishing it, and a refresh pass builds
// an entirely new Result rather than touching a published one.
//
// Seal itself must not race with other access: call it from the goroutine
// that built the Result, before sharing it.
func (r *Result) Seal() {
	for _, id := range AllFigures {
		if _, ok := r.tables[id]; ok {
			continue
		}
		tab, err := figureRegistry[id].emit(r)
		if err != nil {
			if r.tableErrs == nil {
				r.tableErrs = make(map[string]error)
			}
			r.tableErrs[id] = err
		} else {
			r.putTable(id, tab)
		}
	}
}

// Figures returns the panel ids the result can serve — those whose table
// is in the keyed store — in paper order. Before Seal only a demand-driven
// run's requested panels are stored; after Seal the list is exactly the
// panels the run's stages produced.
func (r *Result) Figures() []string {
	out := make([]string, 0, len(r.tables))
	for _, id := range AllFigures {
		if _, ok := r.tables[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// putTable stores one emitted panel in the keyed store.
func (r *Result) putTable(id string, tab *Table) {
	if r.tables == nil {
		r.tables = make(map[string]*Table)
	}
	r.tables[id] = tab
}

func (r *Result) fig1a() (*Table, error) {
	if len(r.Growth) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig1a", Title: "Absolute network growth (nodes/edges added per day)",
		Columns: []string{"day", "nodes_added", "edges_added"}}
	for _, g := range r.Growth {
		t.Rows = append(t.Rows, []float64{float64(g.Day), float64(g.NodesAdded), float64(g.EdgesAdded)})
	}
	return t, nil
}

func (r *Result) fig1b() (*Table, error) {
	if len(r.Growth) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig1b", Title: "Relative network growth (% of previous day's size)",
		Columns: []string{"day", "node_growth_pct", "edge_growth_pct"}}
	for _, g := range r.Growth {
		t.Rows = append(t.Rows, []float64{float64(g.Day), g.NodeGrowthPct, g.EdgeGrowthPct})
	}
	return t, nil
}

func (r *Result) fig1Metric(id string) (*Table, error) {
	if len(r.Metrics) == 0 {
		return nil, ErrStageSkipped
	}
	var title, col string
	t := &Table{Figure: id}
	switch id {
	case "fig1c":
		title, col = "Average node degree over time", "avg_degree"
	case "fig1e":
		title, col = "Average clustering coefficient over time", "clustering"
	case "fig1f":
		title, col = "Assortativity over time", "assortativity"
	}
	t.Title = title
	t.Columns = []string{"day", col}
	for _, m := range r.Metrics {
		v := 0.0
		switch id {
		case "fig1c":
			v = m.AvgDegree
		case "fig1e":
			v = m.Clustering
		case "fig1f":
			v = m.Assort
		}
		t.Rows = append(t.Rows, []float64{float64(m.Day), v})
	}
	return t, nil
}

func (r *Result) fig1d() (*Table, error) {
	if len(r.Metrics) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig1d", Title: "Sampled average path length over time",
		Columns: []string{"day", "avg_path_length"}}
	for _, m := range r.Metrics {
		if m.PathLength > 0 {
			t.Rows = append(t.Rows, []float64{float64(m.Day), m.PathLength})
		}
	}
	if len(t.Rows) == 0 {
		return nil, ErrStageSkipped
	}
	return t, nil
}

func (r *Result) fig2a() (*Table, error) {
	if r.Evolution == nil {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig2a", Title: "PDF of edge inter-arrival times by node-age bucket",
		Columns: []string{"bucket", "gap_days", "pdf"}, Notes: map[string]float64{}}
	for bi, b := range r.Evolution.InterArrival {
		t.Notes[fmt.Sprintf("gamma_bucket%d", bi)] = b.Gamma
		for _, p := range b.PDF {
			t.Rows = append(t.Rows, []float64{float64(bi), p.Center, p.Density})
		}
	}
	return t, nil
}

func (r *Result) fig2b() (*Table, error) {
	if r.Evolution == nil {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig2b", Title: "Edge creation vs normalized user lifetime",
		Columns: []string{"normalized_lifetime", "edge_fraction"},
		Notes:   map[string]float64{"nodes_analyzed": float64(r.Evolution.NodesAnalyzed)}}
	n := len(r.Evolution.LifetimeHist)
	for i, f := range r.Evolution.LifetimeHist {
		center := (float64(i) + 0.5) / float64(n)
		t.Rows = append(t.Rows, []float64{center, f})
	}
	return t, nil
}

func (r *Result) fig2c() (*Table, error) {
	if r.Evolution == nil {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig2c", Title: "Share of daily edges by minimum endpoint age",
		Columns: []string{"day", "min_age_le_1d", "min_age_le_10d", "min_age_le_30d"}}
	for _, d := range r.Evolution.MinAge {
		row := []float64{float64(d.Day)}
		for _, f := range d.Frac {
			row = append(row, f)
		}
		for len(row) < 4 {
			row = append(row, math.NaN())
		}
		t.Rows = append(t.Rows, row[:4])
	}
	return t, nil
}

func (r *Result) fig3pe(id string, higher bool) (*Table, error) {
	if r.Alpha == nil {
		return nil, ErrStageSkipped
	}
	pts := r.Alpha.PERandom
	alpha, mse := r.Alpha.FinalAlphaRandom, r.Alpha.FinalMSERandom
	title := "p_e(d) with random destination selection"
	if higher {
		pts = r.Alpha.PEHigher
		alpha, mse = r.Alpha.FinalAlphaHigher, r.Alpha.FinalMSEHigher
		title = "p_e(d) with higher-degree destination selection"
	}
	t := &Table{Figure: id, Title: title,
		Columns: []string{"degree", "pe", "fit"},
		Notes:   map[string]float64{"alpha": alpha, "mse": mse}}
	// Reconstruct the fitted curve's constant from alpha and the points.
	var c float64
	var n int
	for _, p := range pts {
		if p.Degree > 0 && p.PE > 0 {
			c += math.Log(p.PE) - alpha*math.Log(float64(p.Degree))
			n++
		}
	}
	if n > 0 {
		c = math.Exp(c / float64(n))
	}
	for _, p := range pts {
		if p.Degree == 0 {
			continue
		}
		fit := c * math.Pow(float64(p.Degree), alpha)
		t.Rows = append(t.Rows, []float64{float64(p.Degree), p.PE, fit})
	}
	return t, nil
}

func (r *Result) fig3c() (*Table, error) {
	if r.Alpha == nil || len(r.Alpha.Samples) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig3c", Title: "Evolution of the PA strength α(t)",
		Columns: []string{"edges", "alpha_higher", "alpha_random", "poly_higher", "poly_random"},
		Notes:   map[string]float64{}}
	for _, s := range r.Alpha.Samples {
		ph, pr := math.NaN(), math.NaN()
		if r.Alpha.PolyHigher != nil {
			ph = stats.PolyEval(r.Alpha.PolyHigher, float64(s.Edges)/r.Alpha.PolyScale)
		}
		if r.Alpha.PolyRandom != nil {
			pr = stats.PolyEval(r.Alpha.PolyRandom, float64(s.Edges)/r.Alpha.PolyScale)
		}
		t.Rows = append(t.Rows, []float64{float64(s.Edges), s.AlphaHigher, s.AlphaRandom, ph, pr})
	}
	first, last := r.Alpha.Samples[0], r.Alpha.Samples[len(r.Alpha.Samples)-1]
	t.Notes["alpha_higher_first"] = first.AlphaHigher
	t.Notes["alpha_higher_last"] = last.AlphaHigher
	t.Notes["alpha_random_first"] = first.AlphaRandom
	t.Notes["alpha_random_last"] = last.AlphaRandom
	t.Notes["gap_last"] = last.AlphaHigher - last.AlphaRandom
	return t, nil
}

func (r *Result) fig4Series(id string) (*Table, error) {
	if len(r.DeltaSweep) == 0 {
		return nil, ErrStageSkipped
	}
	title := "Modularity over time by δ"
	if id == "fig4b" {
		title = "Average community similarity over time by δ"
	}
	t := &Table{Figure: id, Title: title, Columns: []string{"delta", "day", "value"}}
	for _, run := range r.DeltaSweep {
		for _, s := range run.Stats {
			v := s.Modularity
			if id == "fig4b" {
				v = s.AvgSimilarity
			}
			t.Rows = append(t.Rows, []float64{run.Delta, float64(s.Day), v})
		}
	}
	return t, nil
}

func (r *Result) fig4c() (*Table, error) {
	if len(r.DeltaSweep) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig4c", Title: "Community size distribution by δ at the sweep day",
		Columns: []string{"delta", "size", "count"}}
	for _, run := range r.DeltaSweep {
		if len(run.SizeDist) == 0 {
			continue
		}
		for size, count := range countSizes(run.SizeDist) {
			t.Rows = append(t.Rows, []float64{run.Delta, float64(size), float64(count)})
		}
	}
	sortRows(t)
	if len(t.Rows) == 0 {
		return nil, ErrStageSkipped
	}
	return t, nil
}

func countSizes(sizes []int) map[int]int {
	m := map[int]int{}
	for _, s := range sizes {
		m[s]++
	}
	return m
}

func sortRows(t *Table) {
	sort.Slice(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i], t.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func (r *Result) fig5a() (*Table, error) {
	if r.Community == nil || len(r.Community.SizeDists) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig5a", Title: "Community size distribution at selected days",
		Columns: []string{"day", "size", "count"}}
	for day, sizes := range r.Community.SizeDists {
		for size, count := range countSizes(sizes) {
			t.Rows = append(t.Rows, []float64{float64(day), float64(size), float64(count)})
		}
	}
	sortRows(t)
	return t, nil
}

func (r *Result) fig5b() (*Table, error) {
	if r.Community == nil {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig5b", Title: "Share of nodes covered by the top-5 communities",
		Columns: []string{"day", "top1", "top2", "top3", "top4", "top5", "top5_total"}}
	for _, s := range r.Community.Stats {
		row := []float64{float64(s.Day)}
		for _, c := range s.TopCoverage {
			row = append(row, c)
		}
		row = append(row, s.Top5Coverage)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Result) fig5c() (*Table, error) {
	if r.Community == nil {
		return nil, ErrStageSkipped
	}
	ls := r.Community.Lifetimes()
	if len(ls) == 0 {
		return nil, ErrStageSkipped
	}
	cdf := stats.NewCDF(ls)
	xs, ps := cdf.Points(200)
	t := &Table{Figure: "fig5c", Title: "CDF of community lifetime",
		Columns: []string{"lifetime_days", "cdf"},
		Notes:   map[string]float64{"communities": float64(len(ls))}}
	for i := range xs {
		t.Rows = append(t.Rows, []float64{xs[i], ps[i]})
	}
	return t, nil
}

func (r *Result) fig6a() (*Table, error) {
	if r.Community == nil {
		return nil, ErrStageSkipped
	}
	mr, sr := r.Community.SizeRatios()
	if len(mr) == 0 && len(sr) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig6a", Title: "CDF of size ratio of the two largest communities in merges vs splits",
		Columns: []string{"kind", "ratio", "cdf"},
		Notes: map[string]float64{
			"merge_events": float64(len(mr)),
			"split_events": float64(len(sr)),
		}}
	emit := func(kind float64, ratios []float64) {
		for i, x := range ratios {
			t.Rows = append(t.Rows, []float64{kind, x, float64(i+1) / float64(len(ratios))})
		}
	}
	emit(0, mr) // 0 = merge
	emit(1, sr) // 1 = split
	return t, nil
}

func (r *Result) fig6b() (*Table, error) {
	if len(r.MergeBins) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig6b", Title: "Merge-prediction accuracy vs community age",
		Columns: []string{"age_lo", "age_hi", "pos_accuracy", "neg_accuracy", "n"},
		Notes: map[string]float64{
			"overall_pos": r.MergeOverall.PosAccuracy,
			"overall_neg": r.MergeOverall.NegAccuracy,
			"overall_acc": r.MergeOverall.Accuracy,
		}}
	for _, b := range r.MergeBins {
		t.Rows = append(t.Rows, []float64{float64(b.AgeLo), float64(b.AgeHi), b.PosAccuracy, b.NegAccuracy, float64(b.N)})
	}
	return t, nil
}

func (r *Result) fig6c() (*Table, error) {
	if r.Community == nil {
		return nil, ErrStageSkipped
	}
	ties, frac := r.Community.StrongestTies()
	if len(ties) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig6c", Title: "Merges choosing the strongest-tie destination over time",
		Columns: []string{"day", "strongest_tie"},
		Notes:   map[string]float64{"strongest_tie_fraction": frac}}
	for _, e := range ties {
		v := 0.0
		if e.StrongestTie {
			v = 1
		}
		t.Rows = append(t.Rows, []float64{float64(e.Day), v})
	}
	return t, nil
}

func (r *Result) fig7a() (*Table, error) {
	if r.Users == nil {
		return nil, ErrStageSkipped
	}
	comm := stats.NewCDF(r.Users.CommunityGaps)
	non := stats.NewCDF(r.Users.NonCommunityGaps)
	if comm.N() == 0 && non.N() == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig7a", Title: "Edge inter-arrival CDF: community vs non-community users",
		Columns: []string{"series", "gap_days", "cdf"},
		Notes: map[string]float64{
			"community_gaps":     float64(comm.N()),
			"non_community_gaps": float64(non.N()),
		}}
	emit := func(kind float64, c *stats.CDF) {
		xs, ps := c.Points(200)
		for i := range xs {
			t.Rows = append(t.Rows, []float64{kind, xs[i], ps[i]})
		}
	}
	emit(0, comm) // 0 = community users
	emit(1, non)  // 1 = non-community users
	return t, nil
}

func (r *Result) fig7Buckets(id string) (*Table, error) {
	if r.Users == nil {
		return nil, ErrStageSkipped
	}
	src := r.Users.LifetimesBySize
	title := "User lifetime CDF by community size"
	xcol := "lifetime_days"
	if id == "fig7c" {
		src = r.Users.InRatioBySize
		title = "In-degree-ratio CDF by community size"
		xcol = "in_degree_ratio"
	}
	if len(src) == 0 {
		return nil, ErrStageSkipped
	}
	// Stable bucket order: non-community first, then by name.
	names := make([]string, 0, len(src))
	for k := range src {
		names = append(names, k)
	}
	sort.Strings(names)
	t := &Table{Figure: id, Title: title,
		Columns: []string{"bucket", xcol, "cdf"},
		Notes:   map[string]float64{}}
	for bi, name := range names {
		t.Notes[fmt.Sprintf("bucket%d_%s_n", bi, name)] = float64(len(src[name]))
		c := stats.NewCDF(src[name])
		xs, ps := c.Points(120)
		for i := range xs {
			t.Rows = append(t.Rows, []float64{float64(bi), xs[i], ps[i]})
		}
	}
	return t, nil
}

func (r *Result) fig8Active(id string) (*Table, error) {
	if r.Merge == nil {
		return nil, ErrStageSkipped
	}
	series := r.Merge.ActiveXiaonei
	title := "Active Xiaonei users after the merge"
	inactive := r.Merge.InactiveAtMergeXiaonei
	if id == "fig8b" {
		series = r.Merge.ActiveFiveQ
		title = "Active 5Q users after the merge"
		inactive = r.Merge.InactiveAtMergeFiveQ
	}
	if len(series) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: id, Title: title,
		Columns: []string{"days_after_merge", "all_pct", "new_pct", "internal_pct", "external_pct"},
		Notes: map[string]float64{
			"inactive_at_merge":  inactive,
			"activity_threshold": float64(r.Merge.ActivityThreshold),
		}}
	for _, d := range series {
		t.Rows = append(t.Rows, []float64{float64(d.DaysAfter), d.All, d.New, d.Internal, d.External})
	}
	return t, nil
}

func (r *Result) fig8c() (*Table, error) {
	if r.Merge == nil || len(r.Merge.EdgesPerDay) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig8c", Title: "Edges created per day after the merge, by type",
		Columns: []string{"days_after_merge", "new", "internal", "external"}}
	for _, d := range r.Merge.EdgesPerDay {
		t.Rows = append(t.Rows, []float64{float64(d.Day), float64(d.NewUsers), float64(d.Internal), float64(d.External)})
	}
	return t, nil
}

func (r *Result) fig9Ratios(id string) (*Table, error) {
	if r.Merge == nil {
		return nil, ErrStageSkipped
	}
	pick := func(d osnmerge.RatioDay) (float64, bool) { return d.IntOverExt, d.HasIntExt }
	title := "Ratio of internal to external edges per day"
	if id == "fig9b" {
		pick = func(d osnmerge.RatioDay) (float64, bool) { return d.NewOverExt, d.HasNewExt }
		title = "Ratio of new to external edges per day"
	}
	t := &Table{Figure: id, Title: title,
		Columns: []string{"days_after_merge", "xiaonei", "fiveq", "both"}}
	n := len(r.Merge.RatiosBoth)
	for i := 0; i < n; i++ {
		row := []float64{float64(r.Merge.RatiosBoth[i].Day)}
		for _, series := range [][]osnmerge.RatioDay{r.Merge.RatiosXiaonei, r.Merge.RatiosFiveQ, r.Merge.RatiosBoth} {
			v := math.NaN()
			if i < len(series) {
				if x, ok := pick(series[i]); ok {
					v = x
				}
			}
			row = append(row, v)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Result) fig9c() (*Table, error) {
	if r.Merge == nil || len(r.Merge.Distances) == 0 {
		return nil, ErrStageSkipped
	}
	t := &Table{Figure: "fig9c", Title: "Average BFS distance between the two OSNs over time",
		Columns: []string{"days_after_merge", "xiaonei_to_5q", "fiveq_to_xiaonei"}}
	for _, d := range r.Merge.Distances {
		t.Rows = append(t.Rows, []float64{float64(d.DaysAfter), d.XiaoneiTo5Q, d.FiveQToXiaonei})
	}
	return t, nil
}
