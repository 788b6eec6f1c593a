package trace

import (
	"path/filepath"
	"testing"
)

// TestDecodeAllocsPerEvent pins the decoder hot loop to zero allocations
// per event: a pass over a 20k-event stream through the FileSource seam —
// a flat and a segmented file (one frame per day, frame cache warm) each
// opened and drained, cursor construction included — must stay within a
// small fixed budget, which is only possible if neither the decoder's
// Next nor the reader layer under it allocates per event or per frame. A
// regression that adds even one allocation per event blows the bound by
// four orders of magnitude.
func TestDecodeAllocsPerEvent(t *testing.T) {
	resetFrameCache(t, DefaultFrameCacheBytes)
	tr := synthTrace(10000)
	nEvents := len(tr.Events)
	dir := t.TempDir()
	flat, seg := filepath.Join(dir, "flat.trace"), filepath.Join(dir, "seg.rrs")
	encodeToFile(t, tr, flat)
	encodeSegToFile(t, tr, seg, true)
	flatSrc, err := OpenTrace(flat)
	if err != nil {
		t.Fatal(err)
	}
	segSrc, err := OpenTrace(seg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, segSrc) // warm the frame cache

	for _, in := range []struct {
		name string
		open func() (Cursor, error)
	}{
		{"flat file", flatSrc.Open},
		{"segmented file", segSrc.Open},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			cur, err := in.open()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				_, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
			}
			cur.Close()
			if n != nEvents {
				t.Fatalf("%s: decoded %d events, want %d", in.name, n, nEvents)
			}
		})
		// Construction allocates the blob handle, the read buffer, the
		// Decoder and the cursor; the per-event loop must contribute
		// nothing.
		const setupBudget = 16
		if allocs > setupBudget {
			t.Fatalf("%s: decode pass allocated %.0f times for %d events (budget %d): the pass is allocating per event", in.name, allocs, nEvents, setupBudget)
		}
		t.Logf("%s: %.0f allocations per pass", in.name, allocs)
	}
}

// TestApplyAllocsPerEvent pins State.Apply to amortized near-zero
// allocations: growth must come from capacity-doubling reservations
// (O(log n) allocations per pass), never from per-event appends.
func TestApplyAllocsPerEvent(t *testing.T) {
	tr := synthTrace(10000)
	nEvents := len(tr.Events)

	allocs := testing.AllocsPerRun(5, func() {
		st := NewState(0, 0)
		for _, ev := range tr.Events {
			if err := st.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		if st.Graph.NumNodes() != 10000 {
			t.Fatalf("replayed %d nodes", st.Graph.NumNodes())
		}
	})
	// A doubling schedule over 10k nodes is ~14 growth steps for each of
	// the node columns and arena pools; 256 leaves ample slack while still
	// catching any O(n) allocation pattern (10k nodes → ≥10k allocs).
	const budget = 256
	if allocs > budget {
		t.Fatalf("apply pass allocated %.0f times for %d events (budget %d): State.Apply is allocating per event", allocs, nEvents, budget)
	}
}
