package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/trace"
)

// ckptStage is a minimal checkpointable stage: it counts events and can
// round-trip that count.
type ckptStage struct {
	Funcs
	events int
}

func (s *ckptStage) OnEvent(_ *trace.State, _ trace.Event) { s.events++ }

func (s *ckptStage) SaveState(w io.Writer) error {
	_, err := w.Write([]byte{byte(s.events)})
	return err
}

func (s *ckptStage) LoadState(data []byte) error {
	if len(data) != 1 {
		return io.ErrUnexpectedEOF
	}
	s.events = int(data[0])
	return nil
}

// forBudgets runs test once per CPU budget: the checkpoint hook runs in
// the one driver at every budget, so each contract must hold at both.
func forBudgets(t *testing.T, test func(t *testing.T, pool *Pool)) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { test(t, NewPool(workers)) })
	}
}

// TestCheckpointCadence pins where the engine fires the checkpoint hook:
// at every day boundary that is a positive multiple of the cadence, with
// the state reflecting that day's end.
func TestCheckpointCadence(t *testing.T) { forBudgets(t, testCheckpointCadence) }

func testCheckpointCadence(t *testing.T, pool *Pool) {
	e := New()
	e.SetPool(pool)
	s := &ckptStage{Funcs: Funcs{StageName: "count"}}
	e.Subscribe(s)
	var days []int32
	var nodesAt []int
	e.EnableCheckpoints(2, func(day int32, st *trace.State) error {
		days = append(days, day)
		nodesAt = append(nodesAt, st.Graph.NumNodes())
		return nil
	})
	if _, err := runEvents(e, testEvents()); err != nil {
		t.Fatal(err)
	}
	// Events land on days 0, 2, 5; boundaries fire for 0..5. Cadence 2
	// hits days 2 and 4 (day 0 is excluded — nothing to resume from),
	// and the end-of-run checkpoint lands on the last replayed day 5.
	want := []int32{2, 4, 5}
	if len(days) != len(want) {
		t.Fatalf("checkpoint days = %v, want %v", days, want)
	}
	for i := range want {
		if days[i] != want[i] {
			t.Fatalf("checkpoint days = %v, want %v", days, want)
		}
		if nodesAt[i] != 3 {
			t.Fatalf("checkpoint state nodes = %v, want day-end counts", nodesAt)
		}
	}
}

// TestCheckpointRequiresCheckpointers holds the strictness contract:
// arming checkpoints with a stage that hides its state is a refused run,
// not a silently incomplete checkpoint.
func TestCheckpointRequiresCheckpointers(t *testing.T) {
	e := New()
	e.Subscribe(Funcs{StageName: "opaque"})
	e.EnableCheckpoints(2, func(int32, *trace.State) error { return nil })
	_, err := runEvents(e, testEvents())
	if err == nil {
		t.Fatal("run started with an un-checkpointable stage")
	}
}

// TestCheckpointErrorAbortsReplay mirrors the Sync-error contract: a
// failed checkpoint write stops the pass at that boundary and surfaces
// the error; no stage Finish runs.
func TestCheckpointErrorAbortsReplay(t *testing.T) { forBudgets(t, testCheckpointErrorAbortsReplay) }

func testCheckpointErrorAbortsReplay(t *testing.T, pool *Pool) {
	e := New()
	e.SetPool(pool)
	finished := false
	s := &ckptStage{Funcs: Funcs{StageName: "count", Done: func(*trace.State) error {
		finished = true
		return nil
	}}}
	e.Subscribe(s)
	boom := errors.New("disk full")
	e.EnableCheckpoints(2, func(day int32, _ *trace.State) error { return boom })
	_, err := runEvents(e, testEvents())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint failure", err)
	}
	if finished {
		t.Fatal("stage Finish ran after an aborted replay")
	}
	// The pass stopped at the failed barrier: day 2's events applied (the
	// boundary fires after them), none of day 5's.
	if s.events != 4 {
		t.Fatalf("events applied = %d, want 4 (abort at the day-2 barrier)", s.events)
	}
}

// TestResumeSourceContext covers the engine's resume entry directly: a
// restored stage + state fed the remaining days matches a from-zero run.
func TestResumeSourceContext(t *testing.T) { forBudgets(t, testResumeSourceContext) }

func testResumeSourceContext(t *testing.T, pool *Pool) {
	events := testEvents()
	src := trace.SliceSource(events)

	full := &ckptStage{Funcs: Funcs{StageName: "count"}}
	eFull := New()
	eFull.SetPool(pool)
	eFull.Subscribe(full)
	stFull, err := eFull.RunSourceContext(nil, src)
	if err != nil {
		t.Fatal(err)
	}

	// First segment: replay through day 2 by hand, then resume from 3.
	part := &ckptStage{Funcs: Funcs{StageName: "count"}}
	st := trace.NewState(4, 4)
	for _, ev := range events {
		if ev.Day > 2 {
			break
		}
		if err := st.Apply(ev); err != nil {
			t.Fatal(err)
		}
		part.OnEvent(st, ev)
	}
	eRes := New()
	eRes.SetPool(pool)
	eRes.Subscribe(part)
	stRes, err := eRes.ResumeSourceContext(nil, src, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part.events != full.events {
		t.Fatalf("resumed stage saw %d events, from-zero %d", part.events, full.events)
	}
	if stRes.Graph.NumNodes() != stFull.Graph.NumNodes() || stRes.Graph.NumEdges() != stFull.Graph.NumEdges() {
		t.Fatal("resumed state diverged")
	}
}

// TestEndOfRunCheckpointBesideFinish pins the end-of-run fan: the
// checkpoint and the Finish chain both run, a budget of one runs the
// checkpoint first, and a checkpoint error wins over a Finish error.
func TestEndOfRunCheckpointBesideFinish(t *testing.T) {
	forBudgets(t, testEndOfRunCheckpointBesideFinish)
}

func testEndOfRunCheckpointBesideFinish(t *testing.T, pool *Pool) {
	errCkpt, errFinish := errors.New("disk full"), errors.New("too few snapshots")
	for _, c := range []struct {
		ckpt, finish, want error
	}{
		{nil, nil, nil},
		{nil, errFinish, errFinish},
		{errCkpt, nil, errCkpt},
		{errCkpt, errFinish, errCkpt},
	} {
		var mu sync.Mutex
		var order []string
		log := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		e := New()
		e.SetPool(pool)
		e.Subscribe(&ckptStage{Funcs: Funcs{StageName: "count", Done: func(*trace.State) error {
			log("finish")
			return c.finish
		}}})
		// Cadence 100: only the end-of-run checkpoint, at day 5, fires.
		e.EnableCheckpoints(100, func(int32, *trace.State) error {
			log("checkpoint")
			return c.ckpt
		})
		_, err := runEvents(e, testEvents())
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("checkpoint %v, Finish %v: err = %v, want %v", c.ckpt, c.finish, err, c.want)
		}
		if len(order) != 2 || (pool.Workers() == 1 && order[0] != "checkpoint") {
			t.Errorf("checkpoint %v, Finish %v: ran %v, want the checkpoint and Finish (checkpoint first at a budget of one)", c.ckpt, c.finish, order)
		}
	}
}
