package osnmerge

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/trace"
)

// postEdge is one buffered post-merge edge event. Edge classification and
// activity coverage depend on the activity threshold, which is a percentile
// over the whole trace, so these events are resolved in Finish.
type postEdge struct {
	day  int32
	u, v graph.NodeID
}

// Stage is the full §5 analysis from a single pass. It folds what would
// otherwise be two event loops plus a third replay for the distance series
// into the shared pass by (a) accumulating per-user gap statistics incrementally, (b)
// sampling inter-OSN distances inline at day boundaries from the live
// graph, and (c) buffering post-merge edges until the activity threshold is
// known in Finish.
type Stage struct {
	opt      Options
	mergeDay int32
	lastDay  int32

	// Per-user inter-arrival accumulators, flat columns indexed by dense
	// node id and grown together on demand: lastEdge[u] is the day of u's
	// most recent edge (-1 before the first — decoded days are never
	// negative), gapSum/gapN the running gap statistics (a user has gap
	// state iff gapN[u] > 0). Columns instead of maps keeps a million
	// touched users at 20 bytes each with no bucket overhead or rehash
	// churn on the per-event hot path.
	lastEdge []int32
	gapSum   []int64
	gapN     []int64
	post     []postEdge

	src       *stats.Source
	rng       *rand.Rand
	xiaonei   []graph.NodeID
	fiveQ     []graph.NodeID
	distances []DistancePoint
	// bfs is the Fig 9c searches' reusable visited column and queue.
	bfs graph.SetScratch

	res *Result
}

// NewStage creates a streaming §5 stage; zero option fields get the
// defaults of DefaultOptions.
func NewStage(mergeDay int32, opt Options) *Stage {
	if opt.ActivityPercentile <= 0 || opt.ActivityPercentile > 100 {
		opt.ActivityPercentile = 99
	}
	if opt.FallbackThreshold <= 0 {
		opt.FallbackThreshold = 94
	}
	if opt.DistanceEvery <= 0 {
		opt.DistanceEvery = 5
	}
	if opt.DistanceSamples <= 0 {
		opt.DistanceSamples = 100
	}
	if opt.RatioWindow <= 0 {
		opt.RatioWindow = 7
	}
	src := stats.NewSource(opt.Seed)
	return &Stage{
		opt:      opt,
		mergeDay: mergeDay,
		lastDay:  -1,
		src:      src,
		rng:      rand.New(src),
	}
}

// growGaps extends the per-user gap columns to cover node u, filling new
// lastEdge entries with the no-edge sentinel. The no-grow path is
// allocation free; growth at least doubles capacity so the per-event hot
// path stays amortized O(1). The three columns always grow in lockstep.
func (s *Stage) growGaps(u graph.NodeID) {
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
		gs := make([]int64, n, c)
		copy(gs, s.gapSum)
		s.gapSum = gs
		gn := make([]int64, n, c)
		copy(gn, s.gapN)
		s.gapN = gn
	} else {
		s.lastEdge = s.lastEdge[:n]
		s.gapSum = s.gapSum[:n]
		s.gapN = s.gapN[:n]
	}
	for i := old; i < n; i++ {
		s.lastEdge[i] = -1
	}
}

// StageName is the stage's planner registry name.
const StageName = "osnmerge"

// Name implements engine.Stage.
func (s *Stage) Name() string { return StageName }

// OnEvent accumulates per-user inter-arrival statistics, the distance-
// source census, and buffers post-merge edges for Finish.
func (s *Stage) OnEvent(_ *trace.State, ev trace.Event) {
	if ev.Day > s.lastDay {
		s.lastDay = ev.Day
	}
	if ev.Kind == trace.AddNode {
		// AddNode events arrive in dense id order, so these lists stay
		// sorted by node id.
		switch ev.Origin {
		case trace.OriginXiaonei:
			s.xiaonei = append(s.xiaonei, ev.U)
		case trace.OriginFiveQ:
			s.fiveQ = append(s.fiveQ, ev.U)
		}
		return
	}
	if ev.Kind != trace.AddEdge {
		return
	}
	for _, u := range [2]graph.NodeID{ev.U, ev.V} {
		s.growGaps(u)
		if last := s.lastEdge[u]; last >= 0 {
			s.gapSum[u] += int64(ev.Day - last)
			s.gapN[u]++
		}
		s.lastEdge[u] = ev.Day
	}
	if ev.Day > s.mergeDay {
		s.post = append(s.post, postEdge{day: ev.Day, u: ev.U, v: ev.V})
	}
}

// OnDayEnd samples the Fig 9c inter-OSN distances on schedule, from the
// live graph restricted to pre-merge users.
func (s *Stage) OnDayEnd(st *trace.State, day int32) {
	if day <= s.mergeDay || (day-s.mergeDay)%s.opt.DistanceEvery != 0 {
		return
	}
	// The census covers the users that exist on the sample day. For any
	// trace whose Xiaonei/5Q users all join by the merge day (every trace
	// the generator produces) this is the complete final census at every
	// post-merge sample; source-origin users arriving later join the pool
	// from their creation day onward.
	if len(s.xiaonei) == 0 || len(s.fiveQ) == 0 {
		return
	}
	preMerge := func(v graph.NodeID) bool { return st.Origin[v] != trace.OriginNew }
	measure := func(sources []graph.NodeID, target trace.Origin) float64 {
		isTarget := func(v graph.NodeID) bool { return st.Origin[v] == target }
		var sum float64
		var n int
		for i := 0; i < s.opt.DistanceSamples; i++ {
			src := sources[s.rng.Intn(len(sources))]
			d := st.Graph.ShortestToSet(src, isTarget, preMerge, &s.bfs)
			if d >= 0 {
				sum += float64(d)
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	s.distances = append(s.distances, DistancePoint{
		DaysAfter:      day - s.mergeDay,
		XiaoneiTo5Q:    measure(s.xiaonei, trace.OriginFiveQ),
		FiveQToXiaonei: measure(s.fiveQ, trace.OriginXiaonei),
	})
}

// Finish computes the activity threshold, resolves the buffered post-merge
// edges into the Fig 8–9 series, and assembles the Result. It returns
// ErrNoMerge for a negative merge day and ErrTooFew when the trace has no
// post-merge observation window.
func (s *Stage) Finish(st *trace.State) error {
	if s.mergeDay < 0 {
		return ErrNoMerge
	}
	origin := st.Origin
	lastDay := s.lastDay

	var means []float64
	for u, n := range s.gapN {
		if n > 0 {
			means = append(means, float64(s.gapSum[u])/float64(n))
		}
	}
	threshold := s.opt.FallbackThreshold
	if len(means) > 0 {
		if p, err := stats.Percentile(means, s.opt.ActivityPercentile); err == nil {
			threshold = int32(math.Ceil(p))
			if threshold < 1 {
				threshold = 1
			}
		}
	}

	horizon := lastDay - threshold - s.mergeDay
	if horizon <= 0 {
		return ErrTooFew
	}

	res := &Result{MergeDay: s.mergeDay, ActivityThreshold: threshold}
	for _, o := range origin {
		switch o {
		case trace.OriginXiaonei:
			res.XiaoneiUsers++
		case trace.OriginFiveQ:
			res.FiveQUsers++
		}
	}

	// Edge classification, activity coverage, ratios — over the buffered
	// post-merge edges. coverage[origin][type] is a day-indexed counter of
	// active users, built by unioning per-user per-type coverage intervals.
	type cov struct {
		diff    []int64 // difference array over days-after-merge
		lastEnd []int32 // per-user union state, index by node id
	}
	days := int(lastDay) + 2
	newCov := func() *cov {
		return &cov{diff: make([]int64, days+1), lastEnd: make([]int32, len(origin))}
	}
	// type index: 0=all 1=new 2=internal 3=external
	var covers [2][4]*cov
	for side := 0; side < 2; side++ {
		for k := 0; k < 4; k++ {
			covers[side][k] = newCov()
		}
	}
	sideOf := func(o trace.Origin) int {
		if o == trace.OriginXiaonei {
			return 0
		}
		return 1
	}
	mergeDay := s.mergeDay
	// mark records that user u (pre-merge) created an edge of the given
	// type at absolute day e: it covers active-days [e-t+1, e].
	mark := func(c *cov, u graph.NodeID, e int32) {
		lo := e - threshold + 1
		if lo <= mergeDay {
			lo = mergeDay
		}
		if prev := c.lastEnd[u]; prev > lo {
			lo = prev
		}
		hi := e + 1 // exclusive
		if lo >= hi {
			return
		}
		c.diff[lo]++
		c.diff[hi]--
		c.lastEnd[u] = hi
	}

	counts := map[int32]*DayCounts{}
	type ratioAcc struct{ internal, external, newu []int64 }
	acc := ratioAcc{
		internal: make([]int64, days),
		external: make([]int64, days),
		newu:     make([]int64, days),
	}
	accX := ratioAcc{internal: make([]int64, days), external: make([]int64, days), newu: make([]int64, days)}
	accQ := ratioAcc{internal: make([]int64, days), external: make([]int64, days), newu: make([]int64, days)}

	for _, ev := range s.post {
		ou, ov := origin[ev.u], origin[ev.v]
		class := Classify(ou, ov)
		da := ev.day - mergeDay
		dc := counts[da]
		if dc == nil {
			dc = &DayCounts{Day: da}
			counts[da] = dc
		}
		switch class {
		case Internal:
			dc.Internal++
			acc.internal[ev.day]++
			if ou == trace.OriginXiaonei {
				accX.internal[ev.day]++
			} else {
				accQ.internal[ev.day]++
			}
		case External:
			dc.External++
			acc.external[ev.day]++
			accX.external[ev.day]++
			accQ.external[ev.day]++
		case NewUser:
			dc.NewUsers++
			acc.newu[ev.day]++
			if ou == trace.OriginXiaonei || ov == trace.OriginXiaonei {
				accX.newu[ev.day]++
			}
			if ou == trace.OriginFiveQ || ov == trace.OriginFiveQ {
				accQ.newu[ev.day]++
			}
		}
		// Activity coverage for pre-merge endpoints.
		for _, pair := range [2][2]graph.NodeID{{ev.u, ev.v}, {ev.v, ev.u}} {
			u, v := pair[0], pair[1]
			o := origin[u]
			if o == trace.OriginNew {
				continue
			}
			side := sideOf(o)
			mark(covers[side][0], u, ev.day)
			switch {
			case origin[v] == trace.OriginNew:
				mark(covers[side][1], u, ev.day)
			case origin[v] == o:
				mark(covers[side][2], u, ev.day)
			default:
				mark(covers[side][3], u, ev.day)
			}
		}
	}

	// Fig 8c series.
	for _, dc := range counts {
		res.EdgesPerDay = append(res.EdgesPerDay, *dc)
	}
	sort.Slice(res.EdgesPerDay, func(i, j int) bool { return res.EdgesPerDay[i].Day < res.EdgesPerDay[j].Day })

	// Fig 8a/8b curves from the coverage difference arrays.
	makeActive := func(side int, total int) []ActiveDay {
		if total == 0 {
			return nil
		}
		cum := [4]int64{}
		var out []ActiveDay
		for d := int32(0); d <= lastDay; d++ {
			for k := 0; k < 4; k++ {
				cum[k] += covers[side][k].diff[d]
			}
			da := d - mergeDay
			if da < 0 || da > horizon {
				continue
			}
			out = append(out, ActiveDay{
				DaysAfter: da,
				All:       100 * float64(cum[0]) / float64(total),
				New:       100 * float64(cum[1]) / float64(total),
				Internal:  100 * float64(cum[2]) / float64(total),
				External:  100 * float64(cum[3]) / float64(total),
			})
		}
		return out
	}
	res.ActiveXiaonei = makeActive(0, res.XiaoneiUsers)
	res.ActiveFiveQ = makeActive(1, res.FiveQUsers)
	if len(res.ActiveXiaonei) > 0 {
		res.InactiveAtMergeXiaonei = 1 - res.ActiveXiaonei[0].All/100
	}
	if len(res.ActiveFiveQ) > 0 {
		res.InactiveAtMergeFiveQ = 1 - res.ActiveFiveQ[0].All/100
	}

	// Fig 9a/9b ratio series (windowed sums).
	makeRatios := func(a ratioAcc) []RatioDay {
		var out []RatioDay
		w := s.opt.RatioWindow
		var sumI, sumE, sumN int64
		for d := mergeDay + 1; d <= lastDay; d++ {
			sumI += a.internal[d]
			sumE += a.external[d]
			sumN += a.newu[d]
			if old := d - w; old > mergeDay {
				sumI -= a.internal[old]
				sumE -= a.external[old]
				sumN -= a.newu[old]
			}
			rd := RatioDay{Day: d - mergeDay}
			if sumE > 0 {
				rd.IntOverExt = float64(sumI) / float64(sumE)
				rd.NewOverExt = float64(sumN) / float64(sumE)
				rd.HasIntExt = true
				rd.HasNewExt = true
			}
			out = append(out, rd)
		}
		return out
	}
	res.RatiosXiaonei = makeRatios(accX)
	res.RatiosFiveQ = makeRatios(accQ)
	res.RatiosBoth = makeRatios(acc)

	res.Distances = s.distances
	s.res = res
	return nil
}

// Result returns the assembled §5 analysis after a successful Finish; nil
// before.
func (s *Stage) Result() *Result { return s.res }

// stageStateV1 versions the stage's checkpoint blob.
const stageStateV1 = 1

// SaveState implements engine.Checkpointer: the per-user gap statistics,
// the buffered post-merge edges, the origin census, the sampled distance
// series, and the distance sampler RNG's position.
func (s *Stage) SaveState(w io.Writer) error {
	e := checkpoint.NewEncoder(w)
	e.U64(stageStateV1)
	e.I32(s.lastDay)
	// The columns serialize as sparse (id, value) pairs in ascending id
	// order — the exact bytes the former map form emitted via SortedKeys,
	// so checkpoints stay byte-identical across the representation change.
	// A user is present in lastEdge iff it has seen an edge (>= 0), and in
	// gapSum/gapN iff it has at least one gap (the two always co-exist).
	nLast := 0
	for _, d := range s.lastEdge {
		if d >= 0 {
			nLast++
		}
	}
	e.U64(uint64(nLast))
	for u, d := range s.lastEdge {
		if d >= 0 {
			e.I32(int32(u))
			e.I32(d)
		}
	}
	nGap := 0
	for _, n := range s.gapN {
		if n > 0 {
			nGap++
		}
	}
	e.U64(uint64(nGap))
	for u, n := range s.gapN {
		if n > 0 {
			e.I32(int32(u))
			e.I64(s.gapSum[u])
		}
	}
	e.U64(uint64(nGap))
	for u, n := range s.gapN {
		if n > 0 {
			e.I32(int32(u))
			e.I64(n)
		}
	}
	e.U64(uint64(len(s.post)))
	for _, p := range s.post {
		e.I32(p.day)
		e.I32(p.u)
		e.I32(p.v)
	}
	e.I32s(s.xiaonei)
	e.I32s(s.fiveQ)
	e.U64(uint64(len(s.distances)))
	for _, dp := range s.distances {
		e.I32(dp.DaysAfter)
		e.F64(dp.XiaoneiTo5Q)
		e.F64(dp.FiveQToXiaonei)
	}
	e.I64(s.src.Draws())
	return e.Flush()
}

// LoadState implements engine.Checkpointer.
func (s *Stage) LoadState(data []byte) error {
	d := checkpoint.NewDecoder(data)
	if v := d.U64(); d.Err() == nil && v != stageStateV1 {
		return fmt.Errorf("osnmerge: checkpoint state version %d", v)
	}
	s.lastDay = d.I32()
	s.lastEdge, s.gapSum, s.gapN = nil, nil, nil
	n := d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		u := d.I32()
		day := d.I32()
		if u < 0 {
			return fmt.Errorf("osnmerge: checkpoint lastEdge id %d", u)
		}
		s.growGaps(u)
		s.lastEdge[u] = day
	}
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		u := d.I32()
		v := d.I64()
		if u < 0 {
			return fmt.Errorf("osnmerge: checkpoint gapSum id %d", u)
		}
		s.growGaps(u)
		s.gapSum[u] = v
	}
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		u := d.I32()
		v := d.I64()
		if u < 0 {
			return fmt.Errorf("osnmerge: checkpoint gapN id %d", u)
		}
		s.growGaps(u)
		s.gapN[u] = v
	}
	n = d.Len()
	s.post = make([]postEdge, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.post = append(s.post, postEdge{day: d.I32(), u: d.I32(), v: d.I32()})
	}
	s.xiaonei = d.I32s()
	s.fiveQ = d.I32s()
	n = d.Len()
	s.distances = make([]DistancePoint, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		s.distances = append(s.distances, DistancePoint{
			DaysAfter: d.I32(), XiaoneiTo5Q: d.F64(), FiveQToXiaonei: d.F64(),
		})
	}
	draws := d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	s.src.Restore(s.opt.Seed, draws)
	return nil
}
