package community

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/trace"
)

// goldenDetector holds the §4 pipeline's complete per-δ output to digests
// committed from an independent implementation: the map-based Louvain
// moves and tracker this package used before both went to dense slices.
// Each digest covers the detector's checkpoint bytes — previous Louvain
// assignment, tracker state (previous communities, tie counts, events,
// histories), every snapshot statistic, the size distributions and the
// final snapshot — plus the Fig 7 users result built on that final
// snapshot. So one digest pins the figures' inputs and the checkpoint
// format at once: any change to a move decision, a float's rounding, an
// event, or a serialized byte shows up here.
var goldenDetector = []struct {
	name      string
	maxLevels int
	delta     float64
	want      string
}{
	{"paper-δ0.01", 1, 0.01, "4ab24d200e6a74f559e75e4edfddfe99f01286845d77584ead0d7e375f213bd2"},
	{"paper-δ0.04", 1, 0.04, "ffe3ad56ca6259feb983cbb51b7dff6a7650e45b1fcf387290015dea3d0dce7e"},
	{"paper-δ0.1", 1, 0.1, "baffb8db8e608c6b5328ab1bc702444e69b90b10c1b38d94da1f13ac98be0c5b"},
	{"aggregated-δ0.001", 4, 0.001, "243da16f6e402bd6fcb6b20ddf753214828641097c29925734790ce7b1d11ea7"},
}

func TestGoldenDetector(t *testing.T) {
	tr := sweepTrace(t)
	for _, tc := range goldenDetector {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.MaxLevels = tc.maxLevels
			opt.Delta = tc.delta
			opt.SizeDistDays = []int32{80, 119, 158}
			if got := detectorDigest(t, tr.Events, opt); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// detectorDigest runs the community and users stages over events in one
// pass and hashes their state.
func detectorDigest(t *testing.T, events []trace.Event, opt Options) string {
	t.Helper()
	cs := NewStage(opt)
	us := NewUsersStage(nil, cs.Result)
	st := trace.NewState(1024, 4096)
	hooks := trace.Hooks{
		OnEvent:  us.OnEvent,
		OnDayEnd: cs.OnDayEnd,
	}
	if err := trace.ReplayFrom(nil, st, trace.SliceSource(events), hooks, 0); err != nil {
		t.Fatal(err)
	}
	if err := cs.Finish(st); err != nil {
		t.Fatal(err)
	}
	if err := us.Finish(st); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := cs.SaveState(&ckpt); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(ckpt.Bytes())
	ui := us.Impact()
	hashFloats(h, ui.CommunityGaps)
	hashFloats(h, ui.NonCommunityGaps)
	for _, m := range []map[string][]float64{ui.LifetimesBySize, ui.InRatioBySize} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			hashFloats(h, m[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFloats writes the length and exact bits of xs into h.
func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
