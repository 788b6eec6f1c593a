package tracking

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/checkpoint"
)

// TestLoadStateRejectsBadTies feeds LoadState a hand-built state with three
// previous communities (ids 1, 2, 3) in which community 1's tie list is
// varied. A tie must name another restored community, in ascending id
// order, with a positive count; anything else would resurface after a
// resume as a merge event's strongest tie (Fig 6c).
func TestLoadStateRejectsBadTies(t *testing.T) {
	type tc struct{ id, n int64 }
	state := func(ties []tc) []byte {
		var buf bytes.Buffer
		e := checkpoint.NewEncoder(&buf)
		e.I64(3)  // nextID
		e.I32(10) // lastDay
		e.Bool(true)
		e.U64(3) // previous communities
		for id := int64(1); id <= 3; id++ {
			e.I64(id)
			e.U64(2)
			e.I32(int32(2 * id))
			e.I32(int32(2*id + 1))
		}
		e.U64(1) // communities with ties
		e.I64(1)
		e.U64(uint64(len(ties)))
		for _, x := range ties {
			e.I64(x.id)
			e.I64(x.n)
		}
		e.U64(0) // events
		e.U64(3) // histories
		for id := int64(1); id <= 3; id++ {
			e.I64(id)
			e.I32(0)
			e.I32(-1)
			e.I64(0)
			e.U64(0)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := NewTracker(2).LoadState(checkpoint.NewDecoder(state([]tc{{2, 4}, {3, 1}}))); err != nil {
		t.Fatalf("valid ties: %v", err)
	}
	for name, ties := range map[string][]tc{
		"unknown community": {{2, 4}, {999, 1}},
		"its owner":         {{1, 4}},
		"descending ids":    {{3, 1}, {2, 4}},
		"repeated id":       {{2, 4}, {2, 1}},
		"zero count":        {{2, 0}},
		"negative count":    {{3, -2}},
	} {
		err := NewTracker(2).LoadState(checkpoint.NewDecoder(state(ties)))
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("tie to %s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
