package community

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/louvain"
	"repro/internal/trace"
)

// sweepTrace generates a small merge trace for sweep tests.
func sweepTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := gen.SmallConfig()
	cfg.Days = 160
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSweepMatchesPerPass is the shared-snapshot sweep's correctness
// guarantee: for every δ, the SweepStage run off one shared pass (frozen
// CSR snapshots, pool fan-out, per-snapshot barrier, stats-only
// detectors) must give the same stats and size distributions, the sweep's
// whole output, bit for bit as one community Stage per δ, each in its own
// replay (runPass).
func TestSweepMatchesPerPass(t *testing.T) {
	tr := sweepTrace(t)
	deltas := []float64{0.01, 0.04, 0.16}
	opt := DefaultOptions()
	// 139 is off the snapshot grid (StartDay 20, every 3 ⇒ snapshots at
	// 20, 23, …, 140, …); it must be served by its nearest snapshot day,
	// 140, and recorded under the requested day 139 — on both paths.
	opt.SizeDistDays = []int32{110, 139}

	pool := engine.NewPool(0)
	sw := NewSweepStage(opt, deltas, pool)
	eng := engine.New()
	eng.Subscribe(sw)
	if _, err := eng.RunSourceContext(context.Background(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	if err := pool.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sw.Deltas(); !reflect.DeepEqual(got, deltas) {
		t.Fatalf("Deltas() = %v, want %v", got, deltas)
	}

	for i, d := range deltas {
		o := opt
		o.Delta = d
		ref, err := runPass(tr.Source(), o)
		if err != nil {
			t.Fatalf("δ=%v reference: %v", d, err)
		}
		got := sw.Result(i)
		if got == nil {
			t.Fatalf("δ=%v: no sweep result", d)
		}
		if !reflect.DeepEqual(got.Stats, ref.Stats) {
			t.Errorf("δ=%v: snapshot stats differ\nsweep: %+v\nref:   %+v", d, got.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(got.SizeDists, ref.SizeDists) {
			t.Errorf("δ=%v: size dists differ: %v vs %v", d, got.SizeDists, ref.SizeDists)
		}
		if _, ok := got.SizeDists[139]; !ok {
			t.Errorf("δ=%v: off-grid SizeDistDay 139 not served by its nearest snapshot", d)
		}
		if got.LastDay != ref.LastDay {
			t.Errorf("δ=%v: last day %d vs %d", d, got.LastDay, ref.LastDay)
		}
	}
}

// TestSweepCancelMidSnapshot drives the cancellation path through the
// per-snapshot barrier: the one spare token of a two-token budget is
// occupied so the first snapshot's detector tasks queue behind it, and
// the run is cancelled before the next snapshot's Sync joins them. The
// barrier must return ctx.Err() promptly — aborting the replay at that
// day boundary with no Finish and no results — and the skipped tasks
// must still drain.
func TestSweepCancelMidSnapshot(t *testing.T) {
	tr := sweepTrace(t)
	deltas := []float64{0.01, 0.04}
	opt := DefaultOptions()

	pool := engine.NewPool(2)
	block, occupied := make(chan struct{}), make(chan struct{})
	pool.Go(func() error { close(occupied); <-block; return nil }) // occupy the spare token
	<-occupied

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sw := NewSweepStage(opt, deltas, pool)
	eng := engine.New()
	eng.Subscribe(sw)
	// Cancel at the second snapshot day, after the sweep's OnDayEnd but
	// before the engine's sync point: Sync then hits the barrier with the
	// first snapshot's tasks still queued behind the occupied token.
	cancelDay := opt.StartDay + opt.SnapshotEvery
	eng.Subscribe(cancelAt{day: cancelDay, cancel: cancel})

	_, err := eng.RunSourceContext(ctx, tr.Source())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
	if err := pool.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range deltas {
		if sw.Result(i) != nil {
			t.Fatalf("δ index %d: got a result from a cancelled run", i)
		}
	}
}

// cancelAt is a stage that cancels the run at the end of one day.
type cancelAt struct {
	day    int32
	cancel context.CancelFunc
}

func (c cancelAt) Name() string                      { return "canceler" }
func (c cancelAt) OnEvent(*trace.State, trace.Event) {}
func (c cancelAt) Finish(*trace.State) error         { return nil }
func (c cancelAt) OnDayEnd(_ *trace.State, day int32) {
	if day == c.day {
		c.cancel()
	}
}

// TestSweepNoSnapshots asserts the shared-snapshot path reports
// ErrNoSnapshots per δ exactly like the per-pass path when the trace never
// reaches snapshot size.
func TestSweepNoSnapshots(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.AddNode, Day: 0, U: 0},
		{Kind: trace.AddNode, Day: 0, U: 1},
		{Kind: trace.AddEdge, Day: 30, U: 0, V: 1},
	}
	pool := engine.NewPool(0)
	sw := NewSweepStage(DefaultOptions(), []float64{0.04}, pool)
	eng := engine.New()
	eng.Subscribe(sw)
	_, err := eng.RunSourceContext(context.Background(), trace.SliceSource(events))
	if !errors.Is(err, ErrNoSnapshots) {
		t.Fatalf("err = %v, want ErrNoSnapshots", err)
	}
	if err := pool.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapToSnapshotDay pins the SizeDistDays snapping rule: nearest
// scheduled day, StartDay floor, half-way ties rounding up.
func TestSnapToSnapshotDay(t *testing.T) {
	opt := Options{StartDay: 20, SnapshotEvery: 3}
	cases := []struct{ in, want int32 }{
		{0, 20}, {20, 20}, {21, 20}, {22, 23}, {23, 23}, {139, 140}, {251, 251},
	}
	for _, c := range cases {
		if got := opt.SnapToSnapshotDay(c.in); got != c.want {
			t.Errorf("snap(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	even := Options{StartDay: 10, SnapshotEvery: 4}
	if got := even.SnapToSnapshotDay(12); got != 14 {
		t.Errorf("half-way tie snap(12) = %d, want 14 (rounds up)", got)
	}
}

// TestSnapshotsShareAndRelease: every reader of a shared cache gets the
// same frozen view and prepared Louvain graph for a snapshot day, and the
// cache holds neither once the last reader has taken it.
func TestSnapshotsShareAndRelease(t *testing.T) {
	st, err := trace.ReplaySource(trace.SliceSource(sweepTrace(t).Events), trace.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	sn := new(Snapshots)
	NewStage(DefaultOptions()).Share(sn, nil)
	NewSweepStage(DefaultOptions(), []float64{0.04}, engine.NewPool(1)).Share(sn)
	f1, p1 := sn.take(40, st.Graph)
	if sn.frozen == nil {
		t.Fatal("cache dropped the view before its second reader took it")
	}
	f2, p2 := sn.take(40, st.Graph)
	if f1 != f2 || p1 != p2 {
		t.Fatal("readers of one snapshot day got different views")
	}
	if sn.frozen != nil || sn.prep != nil {
		t.Fatal("cache still holds the view after every reader took it")
	}
	if f3, _ := sn.take(43, st.Graph); f3 == f1 {
		t.Fatal("a new snapshot day reused the previous day's view")
	}
}

// TestSweepDetectorMatchesDetector holds the δ-sweep's stats-only
// detectors to the full Detector they replace: over the small preset's
// whole snapshot chain, each δ's Stats and SizeDists must be bit-identical
// to a Detector's fed the same frozen snapshots, also when the sweep is
// saved and restored into a fresh stage mid-chain (its previous
// communities then come from regrouping the saved Louvain assignment).
func TestSweepDetectorMatchesDetector(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deltas := []float64{0.01, 0.04, 0.16}
	opt := DefaultOptions()
	opt.SizeDistDays = []int32{110, 200, 297}
	for _, roundTrip := range []bool{false, true} {
		sw := NewSweepStage(opt, deltas, nil)
		var ref []*Detector
		for _, d := range deltas {
			o := opt
			o.Delta = d
			ref = append(ref, NewDetector(o))
		}
		snaps, restored := 0, false
		onDayEnd := func(st *trace.State, day int32) {
			if !ref[0].due(day, st.Graph.NumNodes()) {
				return
			}
			if err := sw.Sync(context.Background(), st, day); err != nil {
				t.Fatal(err)
			}
			f := st.Graph.Freeze()
			p := louvain.Prepare(f)
			for _, d := range ref {
				d.AdvancePrepared(day, f, p)
			}
			if snaps++; roundTrip && snaps == 40 {
				var buf bytes.Buffer
				if err := sw.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				sw = NewSweepStage(opt, deltas, nil)
				if err := sw.LoadState(buf.Bytes()); err != nil {
					t.Fatal(err)
				}
				restored = true
			}
		}
		st, err := trace.ReplaySource(tr.Source(), trace.Hooks{OnDayEnd: onDayEnd})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Finish(st); err != nil {
			t.Fatal(err)
		}
		if roundTrip && !restored {
			t.Fatalf("the chain has %d snapshots, too few to restore mid-chain", snaps)
		}
		for i, d := range ref {
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			got, want := sw.Result(i), d.Result()
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("round trip %v, δ=%v: stats differ from the Detector's", roundTrip, deltas[i])
			}
			if !reflect.DeepEqual(got.SizeDists, want.SizeDists) || len(got.SizeDists) != len(opt.SizeDistDays) {
				t.Errorf("round trip %v, δ=%v: size dists %v, Detector's %v", roundTrip, deltas[i], got.SizeDists, want.SizeDists)
			}
			if got.LastDay != want.LastDay {
				t.Errorf("round trip %v, δ=%v: last day %d, Detector's %d", roundTrip, deltas[i], got.LastDay, want.LastDay)
			}
		}
	}
}

// TestSweepStateRejectsOldAndCorrupt: a version-1 sweep blob, which held
// full per-δ trackers, is refused, and a saved Louvain label outside
// [0, n) — which regrouping would index a slice with — is
// checkpoint.ErrCorrupt.
func TestSweepStateRejectsOldAndCorrupt(t *testing.T) {
	blob := func(version uint64, comm []int32) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf)
		e.U64(version)
		e.U64(1)
		e.F64(0.04)
		e.Bool(true)
		e.I32s(comm)
		e.U64(0) // stats
		e.U64(0) // size dists
		e.I32(20)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(b []byte) error {
		return NewSweepStage(DefaultOptions(), []float64{0.04}, nil).LoadState(b)
	}
	if err := load(blob(sweepStateV2, []int32{0, 0, 2})); err != nil {
		t.Fatalf("valid blob: %v", err)
	}
	if err := load(blob(stageStateV1, []int32{0, 0, 2})); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 blob: err = %v, want a version-1 refusal", err)
	}
	for _, comm := range [][]int32{{0, 3, 1}, {0, -1, 1}} {
		if err := load(blob(sweepStateV2, comm)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("labels %v: err = %v, want ErrCorrupt", comm, err)
		}
	}
}
