package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/storage"
	"repro/internal/trace"
)

// writeTrace encodes events as a finalized trace file carrying meta's
// identity (seed, merge day) and opens it.
func writeTrace(t testing.TB, path string, meta trace.Meta, events []trace.Event) *trace.FileSource {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := trace.NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetSeed(meta.Seed)
	enc.SetMergeDay(meta.MergeDay)
	for _, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// prefixTraces writes the fixture extension's first d days, for each d
// in days, as trace files under dir — the sealed prefixes a followed
// trace presents as it grows.
func prefixTraces(t testing.TB, dir string, days []int32) []*trace.FileSource {
	t.Helper()
	gcfg := gen.SmallConfig()
	gcfg.Days = fxExtDays
	tr, err := gen.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*trace.FileSource, len(days))
	for i, d := range days {
		n, _ := slices.BinarySearchFunc(tr.Events, d, func(ev trace.Event, d int32) int { return int(ev.Day - d) })
		out[i] = writeTrace(t, filepath.Join(dir, fmt.Sprintf("prefix-%d.trace", d)), tr.Meta, tr.Events[:n])
	}
	return out
}

// warmTestServer boots a server over src's file with the test-scale
// config at a tiered checkpoint cadence with retention, so advances write
// delta chains and collect old generations as the daemon does.
func warmTestServer(t testing.TB, src *trace.FileSource, path, ckptDir string) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(), Options{
		TracePath:           path,
		CheckpointDir:       ckptDir,
		CheckpointFullEvery: 3,
		CheckpointKeep:      2,
		Config:              serveTestConfig(),
		Log:                 quietLog(),
		Open:                func() (trace.MetaSource, error) { return src, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// dirObjects reads every object in dir, by name.
func dirObjects(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// sameObjects reports the first difference between two checkpoint
// directory listings, "" if they hold the same names and bytes.
func sameObjects(a, b map[string][]byte) string {
	for name, ab := range a {
		bb, ok := b[name]
		if !ok {
			return name + " missing"
		}
		if string(ab) != string(bb) {
			return name + " differs"
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return name + " unexpected"
		}
	}
	return ""
}

// assertFromZero checks every panel of the published snapshot against a
// from-zero run over src.
func assertFromZero(t testing.TB, srv *Server, src trace.MetaSource) {
	t.Helper()
	want, err := core.RunFigures(nil, src, serveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want.Seal()
	snap := srv.Snapshot()
	ids := want.Figures()
	if got := snap.Res.Figures(); !slices.Equal(got, ids) {
		t.Fatalf("day %d: snapshot serves %v, from-zero run %v", snap.Day, got, ids)
	}
	for _, id := range ids {
		for _, f := range []core.Format{core.FormatTSV, core.FormatJSON} {
			if got, ref := encodeFigure(t, snap.Res, id, f), encodeFigure(t, want, id, f); string(got) != string(ref) {
				t.Fatalf("day %d: %s (%s) differs from the from-zero run", snap.Day, id, f)
			}
		}
	}
}

// TestWarmAdvancesMatchFromZero drives ten successive advances over
// growing sealed prefixes. Each must continue in memory from the
// previous one's end state, publish panels byte-identical to a from-zero
// run of its prefix, and leave the checkpoint directory exactly as the
// same sequence does when every advance reads its checkpoint chain back
// from disk.
func TestWarmAdvancesMatchFromZero(t *testing.T) {
	dir := t.TempDir()
	var days []int32
	for d := int32(fxBaseDays); d <= fxExtDays; d += 3 {
		days = append(days, d)
	}
	srcs := prefixTraces(t, dir, days)

	run := func(warm bool) []map[string][]byte {
		ckptDir := filepath.Join(dir, fmt.Sprintf("ckpt-warm-%v", warm))
		srv := warmTestServer(t, srcs[0], filepath.Join(dir, "live.trace"), ckptDir)
		if !warm {
			// Drop every handle on the way in: each advance resumes
			// from the backend, the behavior without the handle.
			inner := srv.runFigures
			srv.runFigures = func(ctx context.Context, src trace.MetaSource, cfg core.Config, _ *core.ResumeHandle, figures ...string) (*core.Result, *core.ResumeHandle, error) {
				return inner(ctx, src, cfg, nil, figures...)
			}
		}
		if via := srv.Snapshot().ResumedVia; via != "none" {
			t.Fatalf("cold start resumed via %q, want none", via)
		}
		var objs []map[string][]byte
		for _, src := range srcs[1:] {
			prev := srv.Snapshot().Day
			advanced, day, err := srv.AdvanceTo(context.Background(), src)
			if err != nil || !advanced || day != src.Meta().Days-1 {
				t.Fatalf("advance to %d: advanced=%v day=%d err=%v", src.Meta().Days-1, advanced, day, err)
			}
			snap := srv.Snapshot()
			if snap.ResumedFrom != prev {
				t.Fatalf("advance to %d resumed from %d, want the previous published day %d", day, snap.ResumedFrom, prev)
			}
			wantVia := "checkpoint"
			if warm {
				wantVia = "memory"
				assertFromZero(t, srv, src)
			}
			if snap.ResumedVia != wantVia {
				t.Fatalf("advance to %d resumed via %q, want %q", day, snap.ResumedVia, wantVia)
			}
			objs = append(objs, dirObjects(t, ckptDir))
		}
		return objs
	}
	warm, disk := run(true), run(false)
	for i := range warm {
		if diff := sameObjects(disk[i], warm[i]); diff != "" {
			t.Fatalf("after advance %d: checkpoint object %s against the from-disk sequence", i+1, diff)
		}
	}
}

// TestCancelledAdvanceFallsBackToCheckpoint: an advance cancelled after
// its pass took the handle leaves none behind, so the next advance
// resumes from the checkpoint backend — and still matches from zero.
func TestCancelledAdvanceFallsBackToCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srcs := prefixTraces(t, dir, []int32{fxBaseDays, fxBaseDays + 10})
	srv := warmTestServer(t, srcs[0], filepath.Join(dir, "live.trace"), filepath.Join(dir, "ckpt"))

	inner := srv.runFigures
	var tookHandle bool
	srv.runFigures = func(ctx context.Context, src trace.MetaSource, cfg core.Config, from *core.ResumeHandle, figures ...string) (*core.Result, *core.ResumeHandle, error) {
		tookHandle = from != nil
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		cfg.OnProgress = func(day int32, _ int64) {
			// The end of the first replayed day: the handle's state has
			// taken that day's events, and the cancel lands before the
			// checkpoint hook of that boundary, so the backend's newest
			// checkpoint stays the one the handle described.
			if day >= fxBaseDays {
				cancel()
			}
		}
		return inner(ctx, src, cfg, from, figures...)
	}
	if _, _, err := srv.AdvanceTo(context.Background(), srcs[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled advance: err = %v, want context.Canceled", err)
	}
	if !tookHandle {
		t.Fatal("the cancelled pass was not handed the resume handle")
	}
	if srv.warm != nil {
		t.Fatal("a cancelled advance left a resume handle behind")
	}

	srv.runFigures = inner
	if advanced, _, err := srv.AdvanceTo(context.Background(), srcs[1]); err != nil || !advanced {
		t.Fatalf("advance after cancel: advanced=%v err=%v", advanced, err)
	}
	snap := srv.Snapshot()
	if snap.ResumedVia != "checkpoint" || snap.ResumedFrom != fxBaseDays-1 {
		t.Fatalf("advance after cancel resumed via %q from %d, want checkpoint from %d", snap.ResumedVia, snap.ResumedFrom, fxBaseDays-1)
	}
	assertFromZero(t, srv, srcs[1])
}

// TestSwappedTraceRejectsHandle: a trace regenerated with different
// generator knobs keeps the fingerprint (same seed, same merge day) but
// not the stream. The EventsThrough probe must reject the handle as it
// rejects the checkpoint chain, and the advance must match from zero.
func TestSwappedTraceRejectsHandle(t *testing.T) {
	dir := t.TempDir()
	srcs := prefixTraces(t, dir, []int32{fxBaseDays})
	srv := warmTestServer(t, srcs[0], filepath.Join(dir, "live.trace"), filepath.Join(dir, "ckpt"))

	gcfg := gen.SmallConfig()
	gcfg.Days = fxBaseDays + 10
	gcfg.Arrival.Base++
	tr, err := gen.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	swapped := writeTrace(t, filepath.Join(dir, "swapped.trace"), tr.Meta, tr.Events)
	if fp, sfp := srv.Snapshot().Fingerprint, mustFingerprint(t, swapped.Meta()); fp != sfp {
		t.Fatalf("swapped trace changed the fingerprint (%016x vs %016x); the test needs it equal", fp, sfp)
	}
	if advanced, _, err := srv.AdvanceTo(context.Background(), swapped); err != nil || !advanced {
		t.Fatalf("advance over swapped trace: advanced=%v err=%v", advanced, err)
	}
	if via := srv.Snapshot().ResumedVia; via == "memory" {
		t.Fatal("the handle of another stream's state was used")
	}
	assertFromZero(t, srv, swapped)
}

// mustFingerprint is the warm plan's fingerprint over meta.
func mustFingerprint(t testing.TB, meta trace.Meta) uint64 {
	t.Helper()
	plan, err := core.Plan(serveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return plan.Fingerprint(serveTestConfig(), meta)
}

// TestAdvanceAfterCloseDropsHandle: Close drops the resume handle, and a
// later advance is refused before it could take one.
func TestAdvanceAfterCloseDropsHandle(t *testing.T) {
	dir := t.TempDir()
	srcs := prefixTraces(t, dir, []int32{fxBaseDays, fxBaseDays + 3})
	srv := warmTestServer(t, srcs[0], filepath.Join(dir, "live.trace"), filepath.Join(dir, "ckpt"))
	if srv.warm == nil {
		t.Fatal("the warm load left no resume handle")
	}
	srv.Close()
	if srv.warm != nil {
		t.Fatal("Close kept the resume handle")
	}
	if _, _, err := srv.AdvanceTo(context.Background(), srcs[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("AdvanceTo after Close: err = %v, want ErrClosed", err)
	}
	if srv.warm != nil {
		t.Fatal("an advance after Close produced a resume handle")
	}
}

// TestBackendOnlyServer: a server given only Config.CheckpointBackend —
// no CheckpointDir — resumes from that backend like a directory-backed
// server does. Its advance continues in memory from the warm load's last
// checkpoint, and /statz inventories the backend's objects.
func TestBackendOnlyServer(t *testing.T) {
	dir := t.TempDir()
	srcs := prefixTraces(t, dir, []int32{fxBaseDays, fxBaseDays + 10})
	b := storage.NewDirBackend(filepath.Join(dir, "objects"))
	cfg := serveTestConfig()
	cfg.CheckpointBackend = b
	srv, err := NewServer(context.Background(), Options{
		TracePath: filepath.Join(dir, "live.trace"),
		Config:    cfg,
		Log:       quietLog(),
		Open:      func() (trace.MetaSource, error) { return srcs[0], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	if advanced, _, err := srv.AdvanceTo(context.Background(), srcs[1]); err != nil || !advanced {
		t.Fatalf("advance: advanced=%v err=%v", advanced, err)
	}
	snap := srv.Snapshot()
	if snap.ResumedVia != "memory" || snap.ResumedFrom != fxBaseDays-1 {
		t.Fatalf("advance resumed via %q from %d, want memory from %d", snap.ResumedVia, snap.ResumedFrom, fxBaseDays-1)
	}
	assertFromZero(t, srv, srcs[1])

	objs, err := b.List("checkpoint-")
	if err != nil || len(objs) == 0 {
		t.Fatalf("backend holds %d checkpoints (err %v)", len(objs), err)
	}
	var st struct {
		Storage struct {
			Checkpoints *struct {
				Objects int `json:"objects"`
			} `json:"checkpoints"`
		} `json:"storage"`
	}
	if err := json.Unmarshal(get(t, srv.Handler(), "/statz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if ck := st.Storage.Checkpoints; ck == nil || ck.Objects != len(objs) {
		t.Fatalf("/statz checkpoints section %+v, want %d objects", ck, len(objs))
	}
}

// TestPublishedGenerationSurvivesAdvance: a published generation keeps
// serving the same bytes while the next advance continues the live
// stages its Result came from. A reader holding generation k fetches
// every panel of it for as long as advance k+1 runs (under -race in CI),
// and each read must equal the bytes read before that advance started.
func TestPublishedGenerationSurvivesAdvance(t *testing.T) {
	dir := t.TempDir()
	srcs := prefixTraces(t, dir, []int32{fxBaseDays, fxBaseDays + 5, fxBaseDays + 15})
	srv := warmTestServer(t, srcs[0], filepath.Join(dir, "live.trace"), filepath.Join(dir, "ckpt"))
	if advanced, _, err := srv.AdvanceTo(context.Background(), srcs[1]); err != nil || !advanced {
		t.Fatalf("advance 1: advanced=%v err=%v", advanced, err)
	}
	gen := srv.Snapshot()
	if gen.ResumedVia != "memory" {
		t.Fatalf("advance 1 resumed via %q, want memory", gen.ResumedVia)
	}
	ids := gen.Res.Figures()
	before := map[string][]byte{}
	for _, id := range ids {
		before[id] = encodeFigure(t, gen.Res, id, core.FormatTSV)
	}

	read := func() error {
		for _, id := range ids {
			tab, err := gen.Res.Figure(id)
			if err != nil {
				return fmt.Errorf("%s: %v", id, err)
			}
			var buf bytes.Buffer
			if err := tab.Write(&buf, core.FormatTSV); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), before[id]) {
				return fmt.Errorf("%s of day %d changed while the next advance ran", id, gen.Day)
			}
		}
		return nil
	}
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		for {
			if err := read(); err != nil {
				errc <- err
				return
			}
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
		}
	}()
	advanced, _, err := srv.AdvanceTo(context.Background(), srcs[2])
	close(done)
	if rerr := <-errc; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil || !advanced || srv.Snapshot().ResumedVia != "memory" {
		t.Fatalf("advance 2: advanced=%v err=%v via %q", advanced, err, srv.Snapshot().ResumedVia)
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	assertFromZero(t, srv, srcs[2])
}
