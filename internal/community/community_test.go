package community

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/svm"
	"repro/internal/trace"
	"repro/internal/tracking"
)

var (
	runOnce   sync.Once
	runEvents []trace.Event
	runRes    *Result
	runUsers  *UserImpact
	runErr    error
)

// pipeline runs (once) the community and users stages in one pass over a
// small merge trace.
func pipeline(t *testing.T) ([]trace.Event, *Result) {
	t.Helper()
	runOnce.Do(func() {
		cfg := gen.SmallConfig()
		cfg.Days = 220
		tr, err := gen.Generate(cfg)
		if err != nil {
			runErr = err
			return
		}
		runEvents = tr.Events
		opt := DefaultOptions()
		opt.SizeDistDays = []int32{200}
		cs := NewStage(opt)
		us := NewUsersStage(nil, cs.Result)
		st := trace.NewState(1024, 4096)
		hooks := trace.Hooks{OnEvent: us.OnEvent, OnDayEnd: cs.OnDayEnd}
		if runErr = trace.ReplayFrom(nil, st, tr.Source(), hooks, 0); runErr != nil {
			return
		}
		if runErr = cs.Finish(st); runErr != nil {
			return
		}
		if runErr = us.Finish(st); runErr != nil {
			return
		}
		runRes, runUsers = cs.Result(), us.Impact()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return runEvents, runRes
}

// runPass runs one community Stage over src in a private replay.
func runPass(src trace.Source, opt Options) (*Result, error) {
	s := NewStage(opt)
	st := trace.NewState(1024, 4096)
	if err := trace.ReplayFrom(nil, st, src, trace.Hooks{OnDayEnd: s.OnDayEnd}, 0); err != nil {
		return nil, err
	}
	if err := s.Finish(st); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

func TestRunProducesSnapshots(t *testing.T) {
	_, res := pipeline(t)
	if len(res.Stats) < 10 {
		t.Fatalf("snapshots = %d", len(res.Stats))
	}
	for i, s := range res.Stats {
		if s.Modularity < -0.5 || s.Modularity > 1 {
			t.Fatalf("snapshot %d day %d: modularity %v out of band", i, s.Day, s.Modularity)
		}
		if s.Top5Coverage < 0 || s.Top5Coverage > 1 {
			t.Fatalf("top5 coverage %v", s.Top5Coverage)
		}
		if i > 0 && s.Day <= res.Stats[i-1].Day {
			t.Fatal("snapshot days not increasing")
		}
	}
	// Strong community structure claim of §4.1: modularity > 0.4 on most
	// snapshots once the (small test) network has matured.
	var mature, strong int
	for _, s := range res.Stats {
		if s.Day >= 120 {
			mature++
			if s.Modularity > 0.4 {
				strong++
			}
		}
	}
	if mature == 0 || float64(strong)/float64(mature) < 0.8 {
		t.Fatalf("modularity > 0.4 on only %d/%d mature snapshots", strong, mature)
	}
}

func TestSimilarityReasonable(t *testing.T) {
	_, res := pipeline(t)
	// After warmup, matched similarity should be meaningfully positive.
	var sum float64
	var n int
	for _, s := range res.Stats {
		if s.Day >= 100 {
			sum += s.AvgSimilarity
			n++
		}
	}
	if n == 0 {
		t.Fatal("no mature snapshots")
	}
	if avg := sum / float64(n); avg < 0.3 {
		t.Fatalf("avg similarity = %v, tracking too unstable", avg)
	}
}

func TestSizeDistRecorded(t *testing.T) {
	_, res := pipeline(t)
	sizes, ok := res.SizeDists[200]
	if !ok {
		// Day 200 may not be on the 3-day grid from StartDay=20; the
		// grid covers 20, 23, ..., so 200 is on it.
		t.Fatalf("no size distribution for day 200; keys=%v", res.SizeDists)
	}
	if len(sizes) == 0 {
		t.Fatal("empty size distribution")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatal("sizes not sorted descending")
		}
	}
	if sizes[len(sizes)-1] < res.Opt.MinSize {
		t.Fatalf("community below MinSize: %d", sizes[len(sizes)-1])
	}
}

func TestLifetimes(t *testing.T) {
	_, res := pipeline(t)
	ls := res.Lifetimes()
	if len(ls) == 0 {
		t.Fatal("no lifetimes")
	}
	for _, l := range ls {
		if l < 0 {
			t.Fatalf("negative lifetime %v", l)
		}
	}
	// The paper finds most communities short-lived: the median lifetime
	// must be well below the trace length.
	med := ls[len(ls)/2]
	if med > 150 {
		t.Fatalf("median lifetime %v too long for a dynamic network", med)
	}
}

func TestSizeRatiosShapes(t *testing.T) {
	_, res := pipeline(t)
	mr, sr := res.SizeRatios()
	if len(mr) == 0 {
		t.Fatal("no merge events")
	}
	for _, r := range append(append([]float64{}, mr...), sr...) {
		if r <= 0 || r > 1 {
			t.Fatalf("ratio out of (0,1]: %v", r)
		}
	}
	// Small-into-large merges must occur (the dominant paper pattern);
	// the full distributional claim is checked at scale in EXPERIMENTS.md.
	if mr[0] > 0.35 {
		t.Fatalf("no small-into-large merge observed; min ratio %v", mr[0])
	}
}

func TestStrongestTies(t *testing.T) {
	_, res := pipeline(t)
	ties, frac := res.StrongestTies()
	if len(ties) == 0 {
		t.Fatal("no merge events")
	}
	// The paper reports 99%; any healthy tracker should be above 50%.
	if frac < 0.5 {
		t.Fatalf("strongest-tie fraction = %v", frac)
	}
}

func TestBuildMergeDataset(t *testing.T) {
	_, res := pipeline(t)
	ds := BuildMergeDataset(res, -1)
	if len(ds.X) < 20 {
		t.Fatalf("dataset too small: %d", len(ds.X))
	}
	if len(ds.X) != len(ds.Y) || len(ds.X) != len(ds.Age) {
		t.Fatal("dataset lengths inconsistent")
	}
	for _, x := range ds.X {
		if len(x) != FeatureCount {
			t.Fatalf("feature count = %d", len(x))
		}
	}
	pf := ds.PositiveFraction()
	if pf <= 0 || pf >= 1 {
		t.Fatalf("positive fraction = %v (need both classes)", pf)
	}
	// Exclusion: excluding all birthdays at the network merge day must
	// not grow the dataset.
	ds2 := BuildMergeDataset(res, 150)
	if len(ds2.X) > len(ds.X) {
		t.Fatal("exclusion grew the dataset")
	}
}

// TestBuildMergeDatasetPrefixColumns pins BuildMergeDataset's one-pass
// columns to the per-sample rebuild it replaced (buildMergeDatasetRebuild,
// kept here as the reference): X, Y and Age bit-identical, with and
// without the birthday exclusion.
func TestBuildMergeDatasetPrefixColumns(t *testing.T) {
	_, res := pipeline(t)
	for _, exclude := range []int32{-1, 150} {
		got, want := BuildMergeDataset(res, exclude), buildMergeDatasetRebuild(res, exclude)
		if len(want.X) == 0 {
			t.Fatalf("exclude %d: empty reference dataset", exclude)
		}
		if !slices.Equal(got.Y, want.Y) || !slices.Equal(got.Age, want.Age) || len(got.X) != len(want.X) {
			t.Fatalf("exclude %d: %d samples, labels or ages differ from the reference's %d", exclude, len(got.X), len(want.X))
		}
		for i := range want.X {
			for j := range want.X[i] {
				if math.Float64bits(got.X[i][j]) != math.Float64bits(want.X[i][j]) {
					t.Fatalf("exclude %d: sample %d feature %d = %v, reference %v", exclude, i, j, got.X[i][j], want.X[i][j])
				}
			}
		}
	}
}

// buildMergeDatasetRebuild is BuildMergeDataset as it was before the
// prefix columns: it rebuilds the running size, in-ratio and similarity
// slices from index 0 for every sample.
func buildMergeDatasetRebuild(res *Result, excludeBirthDay int32) *MergeDataset {
	ds := &MergeDataset{}
	every := res.Opt.SnapshotEvery
	for _, h := range res.Histories {
		if excludeBirthDay >= 0 && h.Birth == excludeBirthDay {
			continue
		}
		fs := h.Features
		for i := 2; i < len(fs); i++ {
			cur, prev, prev2 := fs[i], fs[i-1], fs[i-2]
			var size, in, sim []float64
			for j := 0; j <= i; j++ {
				size = append(size, float64(fs[j].Size))
				in = append(in, fs[j].InRatio)
				sim = append(sim, fs[j].SelfSim)
			}
			d1s := float64(cur.Size - prev.Size)
			d1i := cur.InRatio - prev.InRatio
			d1m := cur.SelfSim - prev.SelfSim
			d2s := d1s - float64(prev.Size-prev2.Size)
			d2i := d1i - (prev.InRatio - prev2.InRatio)
			d2m := d1m - (prev.SelfSim - prev2.SelfSim)
			age := cur.Day - h.Birth
			x := []float64{
				float64(cur.Size), cur.InRatio, cur.SelfSim,
				stats.StdDev(size), stats.StdDev(in), stats.StdDev(sim),
				sign(d1s), sign(d1i), sign(d1m),
				sign(d2s), sign(d2i), sign(d2m),
				float64(age),
			}
			label := -1
			if i == len(fs)-1 && h.MergedInto != 0 && h.Death >= 0 && h.Death <= cur.Day+every {
				label = 1
			}
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, label)
			ds.Age = append(ds.Age, age)
		}
	}
	return ds
}

func TestEvaluateMergePrediction(t *testing.T) {
	_, res := pipeline(t)
	ds := BuildMergeDataset(res, 150)
	bins, overall, err := EvaluateMergePrediction(ds, 20, svm.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("no age bins")
	}
	if overall.N == 0 {
		t.Fatal("empty test set")
	}
	// The held-out positive count is tiny at test scale, so only overall
	// accuracy is asserted here; the paper's ~75% per-class claim is
	// checked at scale in EXPERIMENTS.md.
	if overall.Accuracy < 0.6 {
		t.Fatalf("accuracy too low: %+v", overall)
	}
	if _, _, err := EvaluateMergePrediction(&MergeDataset{}, 10, svm.Options{}); err != ErrDatasetTooSmall {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeUsers(t *testing.T) {
	pipeline(t)
	ui := runUsers
	if len(ui.CommunityGaps) == 0 {
		t.Fatal("no community-user gaps")
	}
	if len(ui.LifetimesBySize) == 0 {
		t.Fatal("no lifetime buckets")
	}
	// Community users must exist in at least one size bucket.
	foundBucket := false
	for k, v := range ui.LifetimesBySize {
		if k != "non-community" && len(v) > 0 {
			foundBucket = true
		}
	}
	if !foundBucket {
		t.Fatal("no community users bucketed")
	}
	for k, v := range ui.InRatioBySize {
		for _, r := range v {
			if r < 0 || r > 1 {
				t.Fatalf("in-degree ratio out of range in %s: %v", k, r)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	// A node-only trace never reaches snapshot size.
	evs := []trace.Event{{Kind: trace.AddNode, Day: 0, U: 0}}
	if _, err := runPass(trace.SliceSource(evs), DefaultOptions()); err != ErrNoSnapshots {
		t.Fatalf("err = %v", err)
	}
}

func TestCommunityOfNode(t *testing.T) {
	_, res := pipeline(t)
	found := false
	for u := graph0; u < 2000; u++ {
		if _, ok := res.CommunityOfNode(u); ok {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no node in any final community")
	}
}

const graph0 = int32(0)

func TestEventsConsistency(t *testing.T) {
	_, res := pipeline(t)
	for _, ev := range res.Events {
		if ev.Type == tracking.Merge && ev.Other == 0 {
			t.Fatal("merge event without surviving community")
		}
	}
}
