package metrics

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// goldenStage holds the Fig 1 stage's complete output on the small preset
// to digests committed from an independent implementation: the per-source
// BFS sweep (one BFS per sampled source, distances summed as floats)
// this package used before the bit-parallel lane kernel. Each digest
// covers the stage's checkpoint bytes — the growth series, every Snapshot
// (degree, clustering, assortativity and sampled path length, as exact
// float bits) and the sampler rng's draw count — so a changed estimate, a
// changed rounding, or a changed number of rng draws all show up here.
var goldenStage = []struct {
	name string
	opt  StageOptions
	want string
}{
	// The paper's defaults: 100 sources (two lane batches) every 9 days.
	{"defaults", StageOptions{Seed: 1}, "88234942f9fc20334f2756c36511b7a087ab43ec69ea4dab97a5e9b51b62cc7a"},
	// 130 sources every 3 days: three batches, the last one partial, and
	// on the early days a component smaller than k (all sources, no draws).
	{"dense-paths", StageOptions{Seed: 7, PathEvery: 3, PathSources: 130, ClusteringSamples: 200}, "60ecefe6ad710073a1900d624a3f1fcf3c9dabc1e0d8e5d7cf8df4b188c4d7e2"},
}

func TestGoldenStage(t *testing.T) {
	tr, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenStage {
		for _, workers := range []int{1, 2} {
			opt := tc.opt
			opt.Workers = workers
			if got := stageDigest(t, tr.Events, opt); got != tc.want {
				t.Errorf("%s workers=%d: digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// stageDigest runs the metrics stage over events in one pass and hashes its
// checkpoint bytes.
func stageDigest(t *testing.T, events []trace.Event, opt StageOptions) string {
	t.Helper()
	s := NewStage(opt)
	st := trace.NewState(1024, 4096)
	hooks := trace.Hooks{OnEvent: s.OnEvent, OnDayEnd: s.OnDayEnd}
	if err := trace.ReplaySourceIntoContext(nil, st, trace.SliceSource(events), hooks); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
