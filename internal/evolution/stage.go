package evolution

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/powerlaw"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Stage is the Fig 2 analysis: it consumes one event at a time from the
// engine's shared pass and assembles the Result in Finish. It tracks its
// own per-node columns, so it also runs detached from a trace.State (nil
// is fine for every callback).
type Stage struct {
	opt Options

	joinDay []int32
	// edgeDays holds every edge day per user — the Fig 2b normalized-
	// lifetime pass needs the full history, so it is inherently O(edges).
	// It lives in a chunked-arena list collection (same layout as the
	// graph's adjacency) instead of a map of slices: flat pointer-free
	// backing arrays instead of per-user slice headers, bucket overhead,
	// and append-doubling slack. lastEdge is a flat column with -1 for
	// "no edge yet" (decoded days are never negative); a user has a
	// history iff edgeDays.Len(u) > 0, which coincides with lastEdge >= 0.
	edgeDays graph.Int32Lists
	hasEdges bool

	hists    []*stats.LogHistogram
	lastEdge []int32

	minAge   []MinAgeDay
	curDay   int32
	dayTotal int64
	dayHits  []int64

	res *Result
}

// NewStage creates a streaming Fig 2 stage; zero option fields get the
// paper's defaults.
func NewStage(opt Options) *Stage {
	if len(opt.Buckets) == 0 {
		opt.Buckets = DefaultAgeBuckets()
	}
	if opt.LifetimeBins <= 0 {
		opt.LifetimeBins = 20
	}
	if len(opt.MinAgeThresholds) == 0 {
		opt.MinAgeThresholds = []int32{1, 10, 30}
	}
	sort.Slice(opt.MinAgeThresholds, func(i, j int) bool { return opt.MinAgeThresholds[i] < opt.MinAgeThresholds[j] })
	s := &Stage{
		opt:     opt,
		hists:   make([]*stats.LogHistogram, len(opt.Buckets)),
		curDay:  -1,
		dayHits: make([]int64, len(opt.MinAgeThresholds)),
	}
	for i := range s.hists {
		s.hists[i], _ = stats.NewLogHistogram(1.35)
	}
	return s
}

// StageName and AlphaStageName are the planner registry names of the two
// §3 stages.
const (
	StageName      = "evolution"
	AlphaStageName = "alpha"
)

// Name implements engine.Stage.
func (s *Stage) Name() string { return StageName }

// openDay appends the open edge day's Fig 2c row to rows, if it has one.
func (s *Stage) openDay(rows []MinAgeDay) []MinAgeDay {
	if s.curDay < 0 || s.dayTotal == 0 {
		return rows
	}
	fr := make([]float64, len(s.dayHits))
	for i, h := range s.dayHits {
		fr[i] = float64(h) / float64(s.dayTotal)
	}
	return append(rows, MinAgeDay{Day: s.curDay, Frac: fr, Total: s.dayTotal})
}

// growLastEdge extends the lastEdge column to cover node u, filling new
// entries with the no-edge sentinel. Amortized O(1) on the hot path.
func (s *Stage) growLastEdge(u graph.NodeID) {
	n := int(u) + 1
	if n <= len(s.lastEdge) {
		return
	}
	old := len(s.lastEdge)
	if cap(s.lastEdge) < n {
		c := 2 * cap(s.lastEdge)
		if c < n {
			c = n
		}
		if c < 1024 {
			c = 1024
		}
		le := make([]int32, n, c)
		copy(le, s.lastEdge)
		s.lastEdge = le
	} else {
		s.lastEdge = s.lastEdge[:n]
	}
	for i := old; i < n; i++ {
		s.lastEdge[i] = -1
	}
}

func (s *Stage) bucketOf(age int32) int {
	for i, b := range s.opt.Buckets {
		if age >= b.MinDays && age < b.MaxDays {
			return i
		}
	}
	return -1
}

// OnEvent folds one event into the inter-arrival, lifetime, and min-age
// accumulators. The shared state is unused; nil is accepted.
func (s *Stage) OnEvent(_ *trace.State, ev trace.Event) {
	switch ev.Kind {
	case trace.AddNode:
		for int32(len(s.joinDay)) <= ev.U {
			s.joinDay = append(s.joinDay, ev.Day)
		}
		s.joinDay[ev.U] = ev.Day
	case trace.AddEdge:
		s.hasEdges = true
		if ev.Day != s.curDay {
			s.minAge = s.openDay(s.minAge)
			s.curDay = ev.Day
			s.dayTotal = 0
			for i := range s.dayHits {
				s.dayHits[i] = 0
			}
		}
		ageU := ev.Day - s.joinDay[ev.U]
		ageV := ev.Day - s.joinDay[ev.V]
		minA := ageU
		if ageV < minA {
			minA = ageV
		}
		s.dayTotal++
		for i, th := range s.opt.MinAgeThresholds {
			if minA <= th {
				s.dayHits[i]++
			}
		}
		// Inter-arrival per endpoint.
		for _, u := range [2]graph.NodeID{ev.U, ev.V} {
			age := ev.Day - s.joinDay[u]
			s.growLastEdge(u)
			if last := s.lastEdge[u]; last >= 0 {
				gap := ev.Day - last
				if gap > 0 {
					if bi := s.bucketOf(age); bi >= 0 {
						s.hists[bi].Add(float64(gap))
					}
				}
			}
			s.lastEdge[u] = ev.Day
			s.edgeDays.Append(int(u), ev.Day)
		}
	}
}

// OnDayEnd implements engine.Stage; the stage keys its daily flush on edge
// days, so the Fig 2c series has a row only for days with edges.
func (s *Stage) OnDayEnd(_ *trace.State, _ int32) {}

// Finish assembles the Fig 2 Result; ErrNoEdges if the trace had no edges.
// The open edge day's Fig 2c row goes into the Result only: the stage's
// own rows stay as they were, so the pass can continue.
func (s *Stage) Finish(_ *trace.State) error {
	if !s.hasEdges {
		return ErrNoEdges
	}
	res := &Result{MinAge: s.openDay(slices.Clip(s.minAge))}
	for i, h := range s.hists {
		b := InterArrivalBucket{Bucket: s.opt.Buckets[i], PDF: h.Buckets(), Samples: h.Total()}
		if gamma, err := powerlaw.FitBucketPDF(b.PDF); err == nil {
			b.Gamma = gamma
		}
		res.InterArrival = append(res.InterArrival, b)
	}

	// Fig 2b: normalized lifetime activity.
	hist := make([]float64, s.opt.LifetimeBins)
	var users int
	lastDay := s.curDay
	var days []int32
	for u := 0; u < s.edgeDays.NumLists(); u++ {
		nd := s.edgeDays.Len(u)
		if nd == 0 {
			continue
		}
		join := s.joinDay[u]
		if nd < s.opt.MinDegree {
			continue
		}
		if lastDay-join < s.opt.MinHistoryDays {
			continue
		}
		last, _ := s.edgeDays.Last(u)
		life := float64(last - join)
		if life <= 0 {
			continue
		}
		users++
		days = s.edgeDays.AppendTo(days[:0], u)
		for _, d := range days {
			pos := float64(d-join) / life
			bin := int(pos * float64(s.opt.LifetimeBins))
			if bin >= s.opt.LifetimeBins {
				bin = s.opt.LifetimeBins - 1
			}
			hist[bin]++
		}
	}
	var total float64
	for _, h := range hist {
		total += h
	}
	if total > 0 {
		for i := range hist {
			hist[i] /= total
		}
	}
	res.LifetimeHist = hist
	res.NodesAnalyzed = users
	s.res = res
	return nil
}

// Result returns the assembled analysis after Finish; nil before.
func (s *Stage) Result() *Result { return s.res }

// stageStateV1 versions the alpha stage's checkpoint blob, and patchV2
// the Stage's blobs: its whole state is its patch against the empty
// mark, so the two share one layout. Version 1 wrote the whole state in
// a layout of its own; its blobs and patches are refused.
const (
	stageStateV1 = 1
	patchV2      = 2
)

// SaveState implements engine.Checkpointer: the patch against the empty
// mark, a fresh stage's. It holds the join days, every edge-day list
// (the stage's largest hidden state, which makes the Fig 2b
// normalized-lifetime pass resumable), the inter-arrival histograms and
// the Fig 2c accumulators.
func (s *Stage) SaveState(w io.Writer) error { return s.SavePatch(w, patchMark{day: -1}) }

// LoadState implements engine.Checkpointer: it applies the blob to a
// fresh stage.
func (s *Stage) LoadState(data []byte) error {
	*s = *NewStage(s.opt)
	return s.LoadPatch(data)
}

// patchMark is the state a save captured: the last edge day and the
// logs' lengths. Every later edge has a later day, so a list's growth
// since the mark is its entries past day.
type patchMark struct {
	day              int32
	joinDays, minAge int
	lists            int
	total            int64
}

// Mark implements engine.Patcher.
func (s *Stage) Mark() engine.Mark {
	return patchMark{day: s.curDay, joinDays: len(s.joinDay), minAge: len(s.minAge), lists: s.edgeDays.NumLists(), total: s.edgeDays.Total()}
}

// SavePatch implements engine.Patcher: the mark it extends, the join
// days and edge days appended since (the edge days as per-list suffixes,
// like the graph's delta), the Fig 2c rows closed since, and the
// histograms and open day rewritten whole. lastEdge is not written: a
// user's last edge day is the last entry of its edge-day list.
func (s *Stage) SavePatch(w io.Writer, since engine.Mark) error {
	m, ok := since.(patchMark)
	if !ok || m.joinDays > len(s.joinDay) || m.minAge > len(s.minAge) || m.lists > s.edgeDays.NumLists() {
		return fmt.Errorf("evolution: patch against a mark this stage did not make")
	}
	e := checkpoint.NewEncoder(w)
	e.U64(patchV2)
	e.I32(m.day)
	e.Int(m.joinDays)
	e.Int(m.minAge)
	e.Int(m.lists)
	e.I64(m.total)
	e.I32s(s.joinDay[m.joinDays:])
	grown := 0
	for u := 0; u < s.edgeDays.NumLists(); u++ {
		if last, ok := s.edgeDays.Last(u); ok && last > m.day {
			grown++
		}
	}
	e.U64(uint64(grown))
	var days []int32
	for u := 0; u < s.edgeDays.NumLists(); u++ {
		if last, ok := s.edgeDays.Last(u); !ok || last <= m.day {
			continue
		}
		days = s.edgeDays.AppendTo(days[:0], u)
		k := len(days)
		for k > 0 && days[k-1] > m.day {
			k--
		}
		e.I32(int32(u))
		e.I32s(days[k:])
	}
	e.Bool(s.hasEdges)
	e.U64(uint64(len(s.hists)))
	for _, h := range s.hists {
		e.U64(uint64(len(h.Counts)))
		for _, i := range checkpoint.SortedKeys(h.Counts) {
			e.Int(i)
			e.I64(h.Counts[i])
		}
	}
	e.U64(uint64(len(s.minAge) - m.minAge))
	for _, r := range s.minAge[m.minAge:] {
		e.I32(r.Day)
		e.F64s(r.Frac)
		e.I64(r.Total)
	}
	e.I32(s.curDay)
	e.I64(s.dayTotal)
	e.I64s(s.dayHits)
	return e.Flush()
}

// LoadPatch implements engine.Patcher.
func (s *Stage) LoadPatch(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != patchV2 {
		return fmt.Errorf("evolution: checkpoint patch version %d", v)
	}
	m := patchMark{day: d.I32(), joinDays: d.Int(), minAge: d.Int(), lists: d.Int(), total: d.I64()}
	if err := d.Err(); err != nil {
		return err
	}
	if have := s.Mark(); m != have {
		return fmt.Errorf("evolution: patch against %+v, stage is at %+v", m, have)
	}
	s.joinDay = append(s.joinDay, d.I32s()...)
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		u := d.I32()
		days := d.I32s()
		if u < 0 || len(days) == 0 || days[0] <= m.day {
			return fmt.Errorf("evolution: checkpoint patch edgeDays id %d with %d days", u, len(days))
		}
		for _, day := range days {
			s.edgeDays.Append(int(u), day)
		}
		s.growLastEdge(u)
		s.lastEdge[u] = days[len(days)-1]
	}
	s.hasEdges = d.Bool()
	if hn := d.Len(); d.Err() == nil && hn != len(s.hists) {
		return fmt.Errorf("evolution: checkpoint has %d histograms, stage %d", hn, len(s.hists))
	}
	for _, h := range s.hists {
		cn := d.Len()
		counts := make(map[int]int64, min(cn, 1<<16))
		for i := 0; i < cn && d.Err() == nil; i++ {
			k := d.Int()
			counts[k] = d.I64()
		}
		h.RestoreCounts(counts)
	}
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		s.minAge = append(s.minAge, MinAgeDay{Day: d.I32(), Frac: d.F64s(), Total: d.I64()})
	}
	s.curDay = d.I32()
	s.dayTotal = d.I64()
	s.dayHits = d.I64s()
	return d.Err()
}

// AlphaStage is the Fig 3 analysis: α(t) of the PA model under the
// higher-degree and random destination rules. Like Stage it never reads
// the shared state.
type AlphaStage struct {
	opt     AlphaOptions
	src     *stats.Source
	tracker *powerlaw.AlphaTracker
	day     int32
	sawEdge bool
	res     *AlphaResult
}

// NewAlphaStage creates a streaming Fig 3 stage; a zero Interval or
// PolyDegree gets the paper's 5000 or 5.
func NewAlphaStage(opt AlphaOptions) *AlphaStage {
	if opt.Interval <= 0 {
		opt.Interval = 5000
	}
	if opt.PolyDegree <= 0 {
		opt.PolyDegree = 5
	}
	src := stats.NewSource(opt.Seed)
	return &AlphaStage{
		opt:     opt,
		src:     src,
		tracker: powerlaw.NewAlphaTracker(opt.Interval, opt.MinEdges, rand.New(src)),
	}
}

// Name implements engine.Stage.
func (s *AlphaStage) Name() string { return AlphaStageName }

// OnEvent forwards arrivals to the α tracker.
func (s *AlphaStage) OnEvent(_ *trace.State, ev trace.Event) {
	s.day = ev.Day
	switch ev.Kind {
	case trace.AddNode:
		s.tracker.ObserveNode(ev.U)
	case trace.AddEdge:
		s.tracker.ObserveEdge(ev.U, ev.V, ev.Day)
		s.sawEdge = true
	}
}

// OnDayEnd implements engine.Stage.
func (s *AlphaStage) OnDayEnd(_ *trace.State, _ int32) {}

// Finish fits the final exponents and the α(t) polynomial; ErrNoEdges if
// the trace had no edges.
func (s *AlphaStage) Finish(_ *trace.State) error {
	if !s.sawEdge {
		return ErrNoEdges
	}
	res := &AlphaResult{Samples: s.tracker.Finish(s.day)}
	hi := s.tracker.Estimator(powerlaw.DestHigherDegree)
	lo := s.tracker.Estimator(powerlaw.DestRandom)
	res.PEHigher = hi.Snapshot()
	res.PERandom = lo.Snapshot()
	if a, _, m, err := hi.Fit(); err == nil {
		res.FinalAlphaHigher, res.FinalMSEHigher = a, m
	}
	if a, _, m, err := lo.Fit(); err == nil {
		res.FinalAlphaRandom, res.FinalMSERandom = a, m
	}
	// Polynomial fit of α(t) as in Fig 3c, scaled for conditioning.
	if n := len(res.Samples); n > s.opt.PolyDegree {
		res.PolyScale = math.Max(1, float64(res.Samples[n-1].Edges))
		if c, err := powerlaw.FitPolynomial(res.Samples, powerlaw.DestHigherDegree, s.opt.PolyDegree, res.PolyScale); err == nil {
			res.PolyHigher = c
		}
		if c, err := powerlaw.FitPolynomial(res.Samples, powerlaw.DestRandom, s.opt.PolyDegree, res.PolyScale); err == nil {
			res.PolyRandom = c
		}
	}
	s.res = res
	return nil
}

// Result returns the assembled analysis after Finish; nil before.
func (s *AlphaStage) Result() *AlphaResult { return s.res }

// SaveState implements engine.Checkpointer: the α tracker's estimator
// state plus the random-destination RNG's position.
func (s *AlphaStage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	e.I32(s.day)
	e.Bool(s.sawEdge)
	s.tracker.SaveState(e)
	e.I64(s.src.Draws())
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *AlphaStage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("alpha: checkpoint state version %d", v)
	}
	s.day = d.I32()
	s.sawEdge = d.Bool()
	if err := s.tracker.LoadState(d); err != nil {
		return err
	}
	draws := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	s.src.Restore(s.opt.Seed, draws)
	return nil
}
