package tracking

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/graph"
)

// Checkpoint codec for the tracker: everything the cross-snapshot
// matching depends on — the previous snapshot's communities (in their
// deterministic sorted order), the inter-community tie counts, the id
// allocator, and the accumulated events and histories. The node ->
// community column of the previous snapshot is derived from its
// communities and rebuilt by the next Advance, so it is not state.
//
// Existing checkpoints fix the byte layout: tie counts are written per
// community that has any, as (id, then each other id with its count),
// both levels in ascending id order, and histories in ascending id order.

// SaveState serializes the tracker through e.
func (t *Tracker) SaveState(e *checkpoint.Encoder) {
	e.I64(t.nextID)
	e.I32(t.lastDay)
	e.Bool(t.seeded)
	e.U64(uint64(len(t.prev)))
	for _, c := range t.prev {
		e.I64(c.ID)
		e.U64(uint64(len(c.Nodes)))
		for _, u := range c.Nodes {
			e.I32(u)
		}
	}
	var tied []int // prev communities with ties, by ascending id
	for i := range t.prev {
		if t.tieOff[i+1] > t.tieOff[i] {
			tied = append(tied, i)
		}
	}
	slices.SortFunc(tied, func(a, b int) int { return cmp.Compare(t.prev[a].ID, t.prev[b].ID) })
	e.U64(uint64(len(tied)))
	for _, i := range tied {
		e.I64(t.prev[i].ID)
		ties := t.ties[t.tieOff[i]:t.tieOff[i+1]]
		e.U64(uint64(len(ties)))
		for _, tc := range ties {
			e.I64(tc.id)
			e.I64(tc.n)
		}
	}
	e.U64(uint64(len(t.events)))
	for _, ev := range t.events {
		e.I32(ev.Day)
		e.U64(uint64(ev.Type))
		e.I64(ev.ID)
		e.I64(ev.Other)
		e.F64(ev.Similarity)
		e.Int(ev.SizeA)
		e.Int(ev.SizeB)
		e.Bool(ev.StrongestTie)
		e.I64(ev.StrongestTieWith)
	}
	e.U64(uint64(len(t.hist)))
	for _, h := range t.hist {
		e.I64(h.ID)
		e.I32(h.Birth)
		e.I32(h.Death)
		e.I64(h.MergedInto)
		e.U64(uint64(len(h.Features)))
		for _, f := range h.Features {
			e.I32(f.Day)
			e.Int(f.Size)
			e.F64(f.InRatio)
			e.F64(f.SelfSim)
		}
	}
}

// LoadState restores a freshly constructed tracker from d. Beyond the
// decoder's own checks it rejects states no tracker could have saved —
// empty or unsorted communities, histories not numbered 1, 2, 3, …,
// communities naming ids without a history, or ties not between two
// distinct previous communities in ascending id order with a positive
// count — with checkpoint.ErrCorrupt.
func (t *Tracker) LoadState(d *checkpoint.Decoder) error {
	t.nextID = d.I64()
	t.lastDay = d.I32()
	t.seeded = d.Bool()
	n := d.Len()
	t.prev = make([]Community, 0, min(n, 1<<16))
	t.prevMember = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		c := Community{ID: d.I64()}
		cn := d.Len()
		c.Nodes = make([]graph.NodeID, 0, min(cn, 1<<16))
		for j := 0; j < cn && d.Err() == nil; j++ {
			u := d.I32()
			if u < 0 || (j > 0 && u <= c.Nodes[j-1]) {
				return fmt.Errorf("%w: tracker community %d nodes not ascending", checkpoint.ErrCorrupt, c.ID)
			}
			c.Nodes = append(c.Nodes, u)
		}
		if cn == 0 && d.Err() == nil {
			return fmt.Errorf("%w: tracker community %d is empty", checkpoint.ErrCorrupt, c.ID)
		}
		t.prev = append(t.prev, c)
	}
	// Community ids -> prev index, for placing the tie lists.
	byID := make([]int, len(t.prev))
	for i := range byID {
		byID[i] = i
	}
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(t.prev[a].ID, t.prev[b].ID) })
	byPrevID := func(i int, id int64) int { return cmp.Compare(t.prev[i].ID, id) }
	lists := make([][]tie, len(t.prev))
	n = d.Len()
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.I64()
		k, ok := slices.BinarySearchFunc(byID, id, byPrevID)
		if !ok {
			return fmt.Errorf("%w: tracker ties of unknown community %d", checkpoint.ErrCorrupt, id)
		}
		tn := d.Len()
		ties := make([]tie, 0, min(tn, 1<<16))
		for j := 0; j < tn && d.Err() == nil; j++ {
			tc := tie{id: d.I64(), n: d.I64()}
			if d.Err() != nil {
				break
			}
			_, known := slices.BinarySearchFunc(byID, tc.id, byPrevID)
			if !known || tc.id == id || (j > 0 && tc.id <= ties[j-1].id) || tc.n <= 0 {
				return fmt.Errorf("%w: tracker community %d has a tie to %d (count %d)", checkpoint.ErrCorrupt, id, tc.id, tc.n)
			}
			ties = append(ties, tc)
		}
		lists[byID[k]] = ties
	}
	t.tieOff = append(t.tieOff[:0], 0)
	t.ties = t.ties[:0]
	for _, ties := range lists {
		t.ties = append(t.ties, ties...)
		t.tieOff = append(t.tieOff, int32(len(t.ties)))
	}
	n = d.Len()
	t.events = make([]Event, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		t.events = append(t.events, Event{
			Day:  d.I32(),
			Type: EventType(d.U64()),
			ID:   d.I64(), Other: d.I64(),
			Similarity: d.F64(),
			SizeA:      d.Int(), SizeB: d.Int(),
			StrongestTie: d.Bool(), StrongestTieWith: d.I64(),
		})
	}
	n = d.Len()
	t.hist = make([]*History, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		h := &History{ID: d.I64(), Birth: d.I32(), Death: d.I32(), MergedInto: d.I64()}
		if h.ID != int64(i+1) {
			return fmt.Errorf("%w: tracker history %d has id %d", checkpoint.ErrCorrupt, i+1, h.ID)
		}
		fn := d.Len()
		h.Features = make([]Features, 0, min(fn, 1<<16))
		for j := 0; j < fn && d.Err() == nil; j++ {
			h.Features = append(h.Features, Features{
				Day: d.I32(), Size: d.Int(), InRatio: d.F64(), SelfSim: d.F64(),
			})
		}
		t.hist = append(t.hist, h)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if t.nextID != int64(len(t.hist)) {
		return fmt.Errorf("%w: tracker allocated %d ids but has %d histories", checkpoint.ErrCorrupt, t.nextID, len(t.hist))
	}
	for _, c := range t.prev {
		if t.History(c.ID) == nil {
			return fmt.Errorf("%w: tracker community %d has no history", checkpoint.ErrCorrupt, c.ID)
		}
	}
	return nil
}
