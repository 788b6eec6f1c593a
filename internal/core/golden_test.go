package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
)

// goldenRun pins one configuration's complete pipeline output: the SHA-256
// of every AllFigures panel's TSV — the δ-sweep panels (fig4a–c) and the
// tracking-derived panels (fig5, fig6a, fig6c) included — and of the
// end-of-run checkpoint, whose stage blobs hold what the TSVs round away:
// every tracking event, each δ detector's state, the samplers' draw counts
// and the notes' full float bits. The checkpoint is pinned twice: by its
// exact bytes, which move with the container format, and by its decoded
// content (checkpointContent), which does not.
type goldenRun struct {
	name       string
	config     func() (gen.Config, Config)
	figures    map[string]string // figure id → TSV digest
	checkpoint string            // end-of-run checkpoint bytes
	content    string            // end-of-run checkpoint content
}

// The golden runs were committed from a tree where the single-pass plan and
// the multi-pass batch reference it replaced (one private replay per
// analysis) both reproduced every digest, at Workers 1 and 2, resumed and
// from zero.
var (
	// goldenSmall is the small preset under parallelTestConfig — every
	// stage, a two-value δ-sweep and the merge, scaled down;
	// TestParallelWorkersMatch and TestResumeMatchesFromZero check their
	// own runs against it too.
	goldenSmall = goldenRun{
		name: "small",
		config: func() (gen.Config, Config) {
			return gen.SmallConfig(), parallelTestConfig()
		},
		figures: map[string]string{
			"fig1a": "0936e31c724040139135115aa2f1c1754f6e75a4bbf6dbec44526a6f20c8f1c0",
			"fig1b": "c93db3a3f721d66828e141dbeffe88655614af10c06bfca14edaf34d7a74e6b5",
			"fig1c": "faa6680c9667aaa7c9e9e8935d65bf7d331fd713116e38be9afe5dab12b3ef9e",
			"fig1d": "5e516eb8f6c0460bc01361c91990a66432d231f74f502f75a081c078d0d31772",
			"fig1e": "a3c883ce1ab509778b74cbd3d0c562aaebc567702a054325b654ba07da051e11",
			"fig1f": "314c5d46ac348b7b77a8a76c3b4d9ce4d7ed3aca7eb1c736eb2d62ed0beb8921",
			"fig2a": "478dfa38f0540d6a4ddc59d1fb1dc553e4e0dda6dffb98c785b81cd6d249872e",
			"fig2b": "0ea2aae0c659850349e32a34870bedd4d3f3a7762e055150bb8cb439ec653bb0",
			"fig2c": "b1561b1746925dc53865ce525b5f57477467ae82d7c75d07ff32b937921089c3",
			"fig3a": "9ed9f23b5af5ec018cbdf88174b3043ff8de495910dcc935b486bcfc04e36b10",
			"fig3b": "f6a42f2c55b969d46d16e73362ab8a0b08fa40997f98a8c1679c23327313928d",
			"fig3c": "7b4e787cb5857e2109228c711cdbeb57556bc43086d4716a177a7395383ef98f",
			"fig4a": "4f3c3df67fcd674fb4023418b291709ab8a1fb39418c33a67ae731f67e584801",
			"fig4b": "f5a49f133224217cc19a3a7a244467d2905242541ce6cbe22437955a3d5e9866",
			"fig4c": "049df6a08052031657e5e8dfe161d444b0ed1ce9efaf6f6c6a2537fb6139633c",
			"fig5a": "dd4a2be6d2325d7b1d8a5b110117589ed6aad1a102287d5069fb7b56f4f3382f",
			"fig5b": "edb652504a1ce18a5e0ec189ef7ce6a8aa6396d8ab15c948c2c0aa137baf88ca",
			"fig5c": "eed810828e7e7b173bc81b5d07a55013f1801c7cf4160c5cf1423ff309917fcf",
			"fig6a": "cec7a755675354199102f24d63db4fa3b75e075c4594f3d2e9c6b7eddb5d9b49",
			"fig6b": "ba5d0c50bb1d56b8ed7445d1de5eb604763025c424789c035efafb382b1cfffb",
			"fig6c": "7978fe68eb1751c0ea78e29a9b4a00b050cc69cb88fe617a07a46a81f4e42b45",
			"fig7a": "1bf7dfefac3373bcc6438fb35d885ac497412c2393d8d667fe17466a2971436d",
			"fig7b": "828c9ae7ed9376536f93c20b97866e0fd97d6985148f87d66d7d5817a68f9f63",
			"fig7c": "2d68f6c2fa947b73ffc56228306e16f6b62e528bd642627ee10b00796ca7e6b4",
			"fig8a": "390dbfccc1a69c60f7ac51b02c848e8df8f9d2b339656d459825b565756bee19",
			"fig8b": "ee6aad7c113dc44ee252fb9dea2869860e997daeadecb109decb202d828b8528",
			"fig8c": "a76f46fa5f00803a44e6035828740211d76a64cc06c13b288d5a9ee0b39c40d6",
			"fig9a": "b97a615040d4b8404eb3b6f846680bf7a3b5ad4da3c127ae509820ec7b39d01e",
			"fig9b": "dc935640cd60b05797d0ba4023b29095aa3f14c67925a03f86a63604eeaad188",
			"fig9c": "2954de7977a7713f973334e34006e2742343bbf5992a39e0623568cae363ba97",
		},
		checkpoint: "d15eda9fa0c2bbc981b0bb321b5904172e73059e8edde9a7acf07db3d5aafd8b",
		content:    "f567f12e6a3cafcde0f0c73e7cfdf0f1af723c3720ace92bf5569486d8b5bfec",
	}

	// goldenDefault480 is the default preset, seed 1, cut at day 480 (past
	// the merge) under the paper's defaults, the δ-sweep {0.01, 0.1} and
	// the CLIs' default dist-days — `rranalyze -deltas 0.01,0.1` on that
	// trace.
	goldenDefault480 = goldenRun{
		name: "default-480",
		config: func() (gen.Config, Config) {
			g := gen.DefaultConfig()
			g.Seed, g.Days = 1, 480
			cfg := DefaultConfig()
			cfg.DeltaSweep = []float64{0.01, 0.1}
			// The default days of a non-empty trace cannot fail to parse.
			cfg.Community.SizeDistDays, _ = ParseDistDays("", g.Days, cfg.Community)
			return g, cfg
		},
		figures: map[string]string{
			"fig1a": "b7c63a5b51d1337a5188156b559b3de1a21c711046ed39a8d06612fb479d9c7c",
			"fig1b": "10984fc5c4b020dcdb8d5a8d5f36b3df719269b760867fd37f6626dbc0396836",
			"fig1c": "7a5f501be123c5097197964c2483b55a42849cf9057f73cf0a1720a7e3bc5ed6",
			"fig1d": "25ec19e0f6bdb8551a842cc5e30b3dbedde0f378613ab3b39a974dcecb464628",
			"fig1e": "73763e7426b5137c3c9b8114bba6c688a396171afc668276b010498fe7974e1b",
			"fig1f": "a739c67c2365512a717c3ca1a92dff23a9df8947ea3be1c195c075171c633611",
			"fig2a": "cbf91084815492fef246a62be5bd9557ea8bced2b8c52f339f9c47af75aa7801",
			"fig2b": "d7d6e101585ec94d817ac1450a5049519fb9b502f7f50116f21e8f5918b671fe",
			"fig2c": "d29a47df868b36386c1551952f1a1a64cf1832c8a576c3c0d86c774d5a524ac7",
			"fig3a": "ddeaf865e4a371b116a299d18481235c1108f939ee01b3aa98dd38e1db9869f1",
			"fig3b": "e25649567d546d314d2cead594d93600d79b2e19e94dc4dad06535c31894fc8f",
			"fig3c": "0af25364552665a0e579d840349dc00c07ffa3a8dd2f4f08d2455e93498b9932",
			"fig4a": "4a64e6097000d546f00c66d9353587e8d7e63df7c1e8e2f77ec852ec9d910750",
			"fig4b": "e63b880bc53d75ebb0cefe9c7291d7f52c5a22a0cb74b51dab6c6713cf9ba71f",
			"fig4c": "85aa3d3871a3f0f8bbd51754c263a8b1439680e0807809a405b80a466031a0eb",
			"fig5a": "cb1333f1f97e11c9fc13009ca37f050215fe9144e6805e3b09571510f85a8f7e",
			"fig5b": "2216b6ad45abb9439b4e5eac4cc06cf9fc27788faf0e875fd1ff66117f023714",
			"fig5c": "2ebb816c394aee3c97691f73cd99971f4f7449403a51fd9faba89d103aaf5655",
			"fig6a": "b12e398094184bbfa0e29a802e9fbdfafa78035a0b79b2c3daccbde2b2be2124",
			"fig6b": "338eda7b7b1ed4c53c91f0aedf87e30a93697bd5be204564dee2a8b71fa902a7",
			"fig6c": "caef0c55e5d47558e9ae063157d9be8cbe2cab04ba228447059d9389ec9bc201",
			"fig7a": "424c5e6fab6f946669089892570dadccfe9ce670746fca122aefd9fb06885456",
			"fig7b": "c0b25a040c7301712ce4b8789f91e6a8ac44ff28224eefc881a63661f2231291",
			"fig7c": "b9cfc49a0165a7128cf9aabd6561271166ec68557cc6a871709b481539d33b70",
			"fig8a": "0c23a74b6f435abed2575c5ec4e7af45e37ff5e18306063a07dc7aa94a65c587",
			"fig8b": "fb1396f320e6704263ff7fd7fb91ef295dbafef75dac64599694b216550464b4",
			"fig8c": "df0dfc44b0e6a7c2b71d6a0759b19a62fed115993a9c0faf5a2e0b28de1566c3",
			"fig9a": "b0a2ec166459d2e9f1498a243b52abdcbc1cb47799b697d9290d15b6920a430d",
			"fig9b": "191f895e033499f64735a4bce4bb0e366678d931f3d8dae4833496284ad958ea",
			"fig9c": "d0654f493ba1352293612df2e60ca84363dd02115c23b711590bc00d3b5e1e43",
		},
		checkpoint: "718c77784e7d1064b0da594e347520807bbf5acfd2ae495e4132c4bd03c205fd",
		content:    "563f33394f63330f2186e658ff501ccbe1d8f42a248c42a94b110a25c794e9ab",
	}
)

// figureDigests hashes the TSV of every AllFigures panel res serves.
func figureDigests(t *testing.T, res *Result) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range AllFigures {
		tab, err := res.Figure(id)
		if err != nil {
			t.Errorf("figure %s: %v", id, err)
			continue
		}
		h := sha256.New()
		if err := tab.WriteTSV(h); err != nil {
			t.Fatal(err)
		}
		out[id] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// checkGolden holds every figure of res to the golden run.
func checkGolden(t *testing.T, label string, want goldenRun, res *Result) {
	t.Helper()
	got := figureDigests(t, res)
	var diff []string
	for _, id := range AllFigures {
		if got[id] != want.figures[id] {
			diff = append(diff, id)
		}
	}
	if len(diff) > 0 {
		t.Errorf("%s: %d/%d figures differ from golden %q: %s", label, len(diff), len(AllFigures), want.name, strings.Join(diff, " "))
		logDigests(t, got)
	}
}

// checkGoldenCheckpoint holds the end-of-run checkpoint in dir to the
// golden run.
func checkGoldenCheckpoint(t *testing.T, label string, want goldenRun, dir string, lastDay int32) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFileName(lastDay)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want.checkpoint {
		t.Errorf("%s: end-of-run checkpoint digest %s, want %s (golden %q)", label, got, want.checkpoint, want.name)
	}
	var c checkpoint.Chain
	if err := c.Apply(raw); err != nil {
		t.Fatal(err)
	}
	if got := checkpointContent(c.Header.Stages, c.Blobs, c.State); got != want.content {
		t.Errorf("%s: end-of-run checkpoint content digest %s, want %s (golden %q)", label, got, want.content, want.name)
	}
}

// checkpointContent hashes what a checkpoint holds, independent of the
// container format it was stored in: the stage names and blobs in header
// order, then the shared state — every adjacency row in insertion order,
// the join days, the origins and the day.
func checkpointContent(names []string, blobs [][]byte, st *trace.State) string {
	h := sha256.New()
	var b []byte
	put := func(v int64) {
		b = binary.AppendVarint(b[:0], v)
		h.Write(b)
	}
	put(int64(len(names)))
	for i, name := range names {
		put(int64(len(name)))
		h.Write([]byte(name))
		put(int64(len(blobs[i])))
		h.Write(blobs[i])
	}
	n := st.Graph.NumNodes()
	put(int64(n))
	var row []graph.NodeID
	for u := 0; u < n; u++ {
		row = st.Graph.AppendNeighbors(row[:0], graph.NodeID(u))
		put(int64(len(row)))
		for _, v := range row {
			put(int64(v))
		}
	}
	put(int64(len(st.JoinDay)))
	for _, d := range st.JoinDay {
		put(int64(d))
	}
	put(int64(len(st.Origin)))
	for _, o := range st.Origin {
		put(int64(o))
	}
	put(int64(st.Day))
	return hex.EncodeToString(h.Sum(nil))
}

// logDigests prints got as a goldenRun figures literal.
func logDigests(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, id := range AllFigures {
		if d, ok := got[id]; ok {
			b.WriteString("\t\t\t\"" + id + "\": \"" + d + "\",\n")
		}
	}
	t.Logf("got:\n%s", b.String())
}

// smallGolden is one full-plan run of the "small" golden configuration
// over the in-memory trace, shared by the golden test and the figure-shape
// tests in core_test.go.
type smallGolden struct {
	once   sync.Once
	tr     *trace.Trace
	cfg    Config
	res    *Result
	passes int64 // replay passes the run made
	err    error
}

var small smallGolden

func smallRun(t *testing.T) *smallGolden {
	t.Helper()
	small.once.Do(func() {
		var gcfg gen.Config
		gcfg, small.cfg = goldenSmall.config()
		if small.tr, small.err = gen.Generate(gcfg); small.err != nil {
			return
		}
		src := &countingSource{MetaSource: small.tr.Source()}
		small.res, small.err = RunPlan(context.Background(), src, small.cfg, nil)
		small.passes = src.opens.Load()
	})
	if small.err != nil {
		t.Fatal(small.err)
	}
	return &small
}

// fullRun is the small golden run's Result.
func fullRun(t *testing.T) *Result { return smallRun(t).res }

// TestGoldenFigures runs each golden configuration's full plan — no
// figure list, so every registered stage — and holds its figures and its
// end-of-run checkpoint to the committed digests. The small configuration
// also pins the single shared pass (exactly one replay, the δ-sweep
// included) and that the data plane is invisible: the same run over a
// trace file gives the in-memory run's bytes.
func TestGoldenFigures(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		run := smallRun(t)
		if run.passes != 1 {
			t.Errorf("replay passes = %d, want 1 (one shared pass, δ-sweep included)", run.passes)
		}
		checkGolden(t, "slice", goldenSmall, run.res)

		tr, cfg := run.tr, run.cfg
		src := encodeTrace(t, tr, filepath.Join(t.TempDir(), "golden.trace"))
		if src.Meta() != tr.Meta {
			t.Fatalf("file meta %+v != trace meta %+v", src.Meta(), tr.Meta)
		}
		fcfg := cfg
		fcfg.CheckpointDir = t.TempDir()
		fcfg.CheckpointEvery = 1 << 30 // only the end-of-run checkpoint
		fres, err := RunPlan(context.Background(), src, fcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "filesource", goldenSmall, fres)
		checkGoldenCheckpoint(t, "filesource", goldenSmall, fcfg.CheckpointDir, tr.Meta.Days-1)
	})
	t.Run("default-480", func(t *testing.T) {
		gcfg, cfg := goldenDefault480.config()
		tr, err := gen.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 1 << 30
		res, err := RunPlan(context.Background(), tr.Source(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "plan", goldenDefault480, res)
		checkGoldenCheckpoint(t, "plan", goldenDefault480, cfg.CheckpointDir, tr.Meta.Days-1)
	})
}
