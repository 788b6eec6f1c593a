package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/community"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/metrics"
	"repro/internal/osnmerge"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Checkpoint plumbing for the demand-driven pipeline: object naming, the
// compatibility fingerprint, writing at the engine's cadence hook (full
// or delta, per the tiered cadence), resolving/restoring the newest
// usable full-plus-delta chain for a resume, and retention.
//
// All checkpoint IO goes through a storage.Backend — a DirBackend over
// Config.CheckpointDir by default, or whatever Config.CheckpointBackend
// supplies — so the plane never assumes more than atomic whole-object
// puts and ranged reads.

// defaultCheckpointEvery is the cadence used when checkpointing is
// enabled but CheckpointEvery is not set.
const defaultCheckpointEvery = 90

// Stage-name aliases for fingerprint gating, bound to the registries'
// canonical constants so they cannot drift.
const (
	metricsStageName   = metrics.StageName
	evolutionStageName = evolution.StageName
	alphaStageName     = evolution.AlphaStageName
	communityStageName = community.StageName
	usersStageName     = community.UsersStageName
	sweepStageName     = community.SweepStageName
	osnmergeStageName  = osnmerge.StageName
)

const (
	checkpointPrefix = "checkpoint-"
	checkpointExt    = ".ckpt"
	// deltaExt marks a delta checkpoint: a patch against the previous
	// checkpoint (full or delta), resolvable only through its chain.
	deltaExt = ".dckpt"
)

// maxChainDepth bounds how many deltas a resume will walk before giving
// up on a candidate — a corrupted ParentDay must not send resolution on
// an unbounded tour of the backend.
const maxChainDepth = 64

// ckptHeaderProbe is how many bytes of an object the header scan reads.
// Headers are a few hundred bytes (magic, hashes, stage names); 64 KiB
// is a comfortable ceiling even at maxSections stages.
const ckptHeaderProbe = 1 << 16

// checkpointFileName renders the canonical day-addressed object name for
// a full checkpoint.
func checkpointFileName(day int32) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, day, checkpointExt)
}

// deltaFileName renders the object name for a delta checkpoint.
func deltaFileName(day int32) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, day, deltaExt)
}

// parseCheckpointName inverts checkpointFileName/deltaFileName.
func parseCheckpointName(name string) (day int32, delta, ok bool) {
	if !strings.HasPrefix(name, checkpointPrefix) {
		return 0, false, false
	}
	mid := strings.TrimPrefix(name, checkpointPrefix)
	switch {
	case strings.HasSuffix(mid, checkpointExt):
		mid = strings.TrimSuffix(mid, checkpointExt)
	case strings.HasSuffix(mid, deltaExt):
		mid, delta = strings.TrimSuffix(mid, deltaExt), true
	default:
		return 0, false, false
	}
	v, err := strconv.ParseInt(mid, 10, 32)
	if err != nil || v < 0 {
		return 0, false, false
	}
	return int32(v), delta, true
}

// parseCheckpointDay inverts checkpointFileName (full checkpoints only).
func parseCheckpointDay(name string) (int32, bool) {
	day, delta, ok := parseCheckpointName(name)
	if !ok || delta {
		return 0, false
	}
	return day, true
}

// configFingerprint hashes everything a checkpoint's validity depends
// on: the subscribed stage set, the Config knobs those stages read
// during the replay, and the trace's identity (generator seed and merge
// day — deliberately not the day count, since the trace growing more
// days between runs is the whole point of incremental resume). Knobs of
// stages outside the plan are excluded on purpose: e.g. rranalyze
// derives SizeDistDays from the trace length, and hashing it into a
// metrics-only run would spuriously invalidate every checkpoint the
// moment the trace grows. The storage knobs (cadence, retention,
// backend) are excluded too: they decide where and how often state is
// persisted, never what the state is, so checkpoints written full
// resume runs configured for deltas and vice versa. Two runs with equal
// fingerprints accumulate identical stage state day by day, so a
// checkpoint from one can seed the other. (The post-pass SVM evaluation
// re-runs from the community result on every run, resumed or not, so it
// constrains nothing.)
func configFingerprint(cfg Config, meta trace.Meta, stages []string) uint64 {
	has := map[string]bool{}
	for _, s := range stages {
		has[s] = true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "v1|stages=%v", stages)
	fmt.Fprintf(h, "|trace=%d,%d", meta.Seed, meta.MergeDay)
	if has[metricsStageName] {
		fmt.Fprintf(h, "|metrics=%d,%d,%d,%d,%d", cfg.MetricsEvery, cfg.PathEvery, cfg.PathSources, cfg.ClusteringSamples, cfg.Seed)
	}
	if has[evolutionStageName] {
		fmt.Fprintf(h, "|evolution=%+v", cfg.Evolution)
	}
	if has[alphaStageName] {
		fmt.Fprintf(h, "|alpha=%+v", cfg.Alpha)
	}
	if has[communityStageName] || has[sweepStageName] || has[usersStageName] {
		fmt.Fprintf(h, "|community=%+v", cfg.Community)
	}
	if has[sweepStageName] {
		fmt.Fprintf(h, "|deltas=%v", cfg.DeltaSweep)
	}
	if has[osnmergeStageName] {
		fmt.Fprintf(h, "|merge=%+v", cfg.Merge)
	}
	return h.Sum64()
}

// Fingerprint hashes cfg and the trace identity under the plan's stage
// set — the same stage-set-gated derivation the checkpoint plane uses
// (configFingerprint), exposed so the serving layer can build cache keys:
// two requests share a fingerprint exactly when their runs would
// accumulate identical state, so (fingerprint, trace day, figure id) is a
// sound cache identity. It hashes the plan's declared stage list
// (pre-gating), which can differ from a checkpoint header's subscribed
// set (e.g. the merge stage on a merge-free trace) — it identifies cache
// entries, not checkpoint files.
func (p *FigurePlan) Fingerprint(cfg Config, meta trace.Meta) uint64 {
	return configFingerprint(cfg.withDefaults(), meta, p.Stages())
}

// stageNames lists the subscribed stages in subscription order.
func stageNames(stages []engine.Stage) []string {
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = s.Name()
	}
	return out
}

// fnvSum is the checkpoint plane's object identity hash: deltas record
// the FNV-64a of their parent's exact bytes, so a chain only resolves
// against the very objects it was diffed from.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ckptStages returns the subscribed stages that belong to the state
// plane: everything except the observational progress display, which
// must never gate resume compatibility — toggling a stderr progress line
// between runs is not a different computation. (A resumed run's progress
// counter therefore counts only the replayed delta.)
func (x *planExec) ckptStages() []engine.Stage {
	all := x.eng.Subscribed()
	out := all[:0]
	for _, s := range all {
		if _, observational := s.(*progressStage); !observational {
			out = append(out, s)
		}
	}
	return out
}

// ckptParent is the writer's summary of the last checkpoint it wrote (or
// restored): exactly what the next delta needs — the parent's identity
// (day, byte hash), its state shape (node count, degree vector), its
// stage blobs for unchanged-detection, and its position in the chain.
// Holding this instead of the whole parent state keeps the delta path
// O(nodes) in memory, not O(edges).
type ckptParent struct {
	day   int32
	sum   uint64
	nodes int
	deg   []int32
	blobs [][]byte
	depth int // 0 = full checkpoint, k = k-th delta in its chain
}

// ResumeHandle is a single-use, in-memory resume point: the end state of
// a successful checkpointed pass whose last checkpoint is the state it
// ended on. It holds what that checkpoint describes — the writer's parent
// summary (day, object hash, chain depth, node count, degree vector, raw
// stage blobs) under the run's fingerprint and stage set — plus the live
// shared state itself, so the next pass over the grown trace continues
// from memory instead of fetching, hashing and decoding the chain. The
// handle trusts its own last write exactly as a run already does between
// cadence checkpoints. Get one from ContinueFigures; a pass given a
// handle consumes it whether or not it can use it.
type ResumeHandle struct {
	hash   uint64
	names  []string
	parent *ckptParent
	st     *trace.State
}

// take empties h and returns its former contents (the zero value for a
// nil or spent handle), so no second pass can reach a state the first
// one is about to mutate.
func (h *ResumeHandle) take() ResumeHandle {
	if h == nil {
		return ResumeHandle{}
	}
	v := *h
	*h = ResumeHandle{}
	return v
}

// describes reports whether the handle is the candidate's object as this
// run would load it: same fingerprint and stage set, same day, and the
// same kind of object (the handle's chain depth is 0 exactly for a full).
func (h *ResumeHandle) describes(x *planExec, cand ckptCandidate) bool {
	if h.st == nil || h.hash != x.ckptHash || h.parent.day != cand.day || cand.delta != (h.parent.depth > 0) {
		return false
	}
	return slices.Equal(h.names, x.ckptNames)
}

// resumeHandle returns the pass's end state as a ResumeHandle when its
// last checkpoint describes that state (nil otherwise: checkpoints off,
// none written or restored, or state past the last one).
func (x *planExec) resumeHandle(st *trace.State) *ResumeHandle {
	if x.parent == nil || x.parent.day != st.Day {
		return nil
	}
	return &ResumeHandle{hash: x.ckptHash, names: x.ckptNames, parent: x.parent, st: st}
}

// armCheckpoints enables checkpoint writing on the instantiated run and
// records the fingerprint resume resolution matches against. The backend
// is resolved here: an explicit Config.CheckpointBackend wins, else a
// DirBackend over CheckpointDir.
func (x *planExec) armCheckpoints() {
	cfg := x.rt.cfg
	x.backend = cfg.CheckpointBackend
	if x.backend == nil {
		if cfg.CheckpointDir == "" {
			return
		}
		x.backend = storage.NewDirBackend(cfg.CheckpointDir)
	}
	x.ckptNames = stageNames(x.ckptStages())
	x.ckptHash = configFingerprint(cfg, x.rt.meta, x.ckptNames)
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	x.eng.EnableCheckpoints(every, x.writeCheckpoint)
}

// writeCheckpoint serializes the run at one day boundary. At the tiered
// cadence (Config.CheckpointFullEvery = F) one checkpoint in F is a full
// container and the rest are deltas against the previous checkpoint:
// the state patch the append-only replay implies, plus only the stage
// blobs whose bytes actually changed. Whole objects go through the
// backend's atomic Put, so readers only ever see complete checkpoints.
// Any reason a delta can't be computed (first checkpoint, foreign
// restore, non-extension state) falls back to a full — a delta is an
// optimization, never a requirement.
func (x *planExec) writeCheckpoint(day int32, st *trace.State) error {
	start := time.Now()
	stages := x.ckptStages()
	raw := make([][]byte, 0, len(stages))
	blobs := make([]checkpoint.StageBlob, 0, len(stages))
	for _, s := range stages {
		var buf bytes.Buffer
		if err := s.(engine.Checkpointer).SaveState(&buf); err != nil {
			return fmt.Errorf("stage %s: %w", s.Name(), err)
		}
		raw = append(raw, buf.Bytes())
		blobs = append(blobs, checkpoint.StageBlob{Name: s.Name(), Data: buf.Bytes()})
	}

	fullEvery := x.rt.cfg.CheckpointFullEvery
	var buf bytes.Buffer
	var name string
	delta := false
	if fullEvery > 1 && x.parent != nil && x.parent.depth+1 < fullEvery && x.parent.day < day {
		patch, err := checkpoint.DiffState(x.parent.nodes, x.parent.deg, st)
		if err == nil {
			dblobs := make([]checkpoint.DeltaBlob, len(raw))
			for i := range raw {
				changed := i >= len(x.parent.blobs) || !bytes.Equal(raw[i], x.parent.blobs[i])
				dblobs[i] = checkpoint.DeltaBlob{Name: x.ckptNames[i], Changed: changed}
				if changed {
					dblobs[i].Data = raw[i]
				}
			}
			h := checkpoint.DeltaHeader{Day: day, ParentDay: x.parent.day, ParentSum: x.parent.sum, ConfigHash: x.ckptHash, Stages: x.ckptNames}
			if err := checkpoint.WriteDelta(&buf, h, patch, dblobs); err != nil {
				return err
			}
			name, delta = deltaFileName(day), true
		}
	}
	if !delta {
		h := checkpoint.Header{Day: day, ConfigHash: x.ckptHash, Stages: x.ckptNames}
		if err := checkpoint.Write(&buf, h, st, blobs); err != nil {
			return err
		}
		name = checkpointFileName(day)
	}
	if err := x.backend.Put(name, buf.Bytes()); err != nil {
		return err
	}
	depth := 0
	if delta {
		depth = x.parent.depth + 1
	}
	x.parent = &ckptParent{
		day:   day,
		sum:   fnvSum(buf.Bytes()),
		nodes: st.Graph.NumNodes(),
		deg:   checkpoint.Degrees(st),
		blobs: raw,
		depth: depth,
	}
	if obs := x.rt.cfg.CheckpointObserver; obs != nil {
		obs(CheckpointStat{Day: day, Delta: delta, Bytes: int64(buf.Len()), Elapsed: time.Since(start)})
	}
	x.gcCheckpoints()
	return nil
}

// gcCheckpoints enforces Config.CheckpointKeep: all but the newest N
// full checkpoints carrying this run's fingerprint — and every delta
// chained above the oldest kept full — are deleted. Deltas always chain
// downward to the nearest full at or below their day, so nothing that a
// kept-full resume could walk is ever removed. Objects under other
// fingerprints (another config sharing the backend) are never touched,
// and every failure here is swallowed: retention is best-effort
// housekeeping, not a reason to fail a checkpoint write.
func (x *planExec) gcCheckpoints() {
	keep := x.rt.cfg.CheckpointKeep
	if keep <= 0 {
		return
	}
	objs, err := x.backend.List(checkpointPrefix)
	if err != nil {
		return
	}
	type entry struct {
		name  string
		day   int32
		delta bool
	}
	var mine []entry
	var fullDays []int32
	for _, o := range objs {
		day, isDelta, ok := parseCheckpointName(o.Name)
		if !ok {
			continue
		}
		if match, _ := x.headerMatches(o.Name, isDelta); !match {
			continue
		}
		mine = append(mine, entry{o.Name, day, isDelta})
		if !isDelta {
			fullDays = append(fullDays, day)
		}
	}
	if len(fullDays) <= keep {
		return
	}
	sort.Slice(fullDays, func(i, j int) bool { return fullDays[i] > fullDays[j] })
	cutoff := fullDays[keep-1]
	for _, e := range mine {
		if e.day < cutoff {
			_ = x.backend.Delete(e.name)
		}
	}
}

// ckptCandidate is one resolvable checkpoint object.
type ckptCandidate struct {
	name  string
	day   int32
	delta bool
}

// findCheckpoints resolves the checkpoints usable by this run — every
// checkpoint day <= maxDay whose header carries this run's exact stage
// set and config fingerprint — newest first, full before delta on a
// shared day (the full resolves cheaper). The caller restores the first
// whose chain loads cleanly; unreadable candidates are skipped, never
// fatal. stale reports that a listed object vanished between the listing
// and the header probe — the signature of a concurrent writer rotating
// the backend (atomic put over an existing name, or retention deleting
// old days) — so the caller knows a rescan may see a newer object than
// any candidate returned here.
func (x *planExec) findCheckpoints(maxDay int32) (cands []ckptCandidate, stale bool) {
	objs, err := x.backend.List(checkpointPrefix)
	if err != nil {
		return nil, false
	}
	for _, o := range objs {
		if d, isDelta, ok := parseCheckpointName(o.Name); ok && d <= maxDay {
			cands = append(cands, ckptCandidate{name: o.Name, day: d, delta: isDelta})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].day != cands[j].day {
			return cands[i].day > cands[j].day
		}
		return !cands[i].delta && cands[j].delta
	})
	out := cands[:0]
	for _, c := range cands {
		ok, notExist := x.headerMatches(c.name, c.delta)
		if notExist {
			stale = true
		}
		if ok {
			out = append(out, c)
		}
	}
	return out, stale
}

// headerMatches reports whether the checkpoint object was written by a
// run with this run's stage set and fingerprint; notExist distinguishes
// an object that vanished mid-scan from one that exists but doesn't
// match. Only a bounded prefix is fetched — resolution scans many
// candidates and must not pay whole-object reads for each.
func (x *planExec) headerMatches(name string, delta bool) (ok, notExist bool) {
	rc, err := x.backend.OpenRange(name, 0, ckptHeaderProbe)
	if err != nil {
		return false, errors.Is(err, fs.ErrNotExist)
	}
	defer rc.Close()
	var hash uint64
	var stages []string
	if delta {
		h, err := checkpoint.ReadDeltaHeader(rc)
		if err != nil {
			return false, false
		}
		hash, stages = h.ConfigHash, h.Stages
	} else {
		h, err := checkpoint.ReadHeader(rc)
		if err != nil {
			return false, false
		}
		hash, stages = h.ConfigHash, h.Stages
	}
	if hash != x.ckptHash || len(stages) != len(x.ckptNames) {
		return false, false
	}
	for i, s := range stages {
		if s != x.ckptNames[i] {
			return false, false
		}
	}
	return true, false
}

// ckptScanRetries bounds how many times a resume rescans a checkpoint
// backend that changed under it before settling for what it can read.
const ckptScanRetries = 3

// testCkptAfterScan, when non-nil, runs after each candidate scan and
// before any restore attempt — the regression tests' window for mutating
// the backend the way a concurrent writer would.
var testCkptAfterScan func(attempt int)

// resolveResume finds and restores the newest compatible checkpoint into
// a plan instantiation, returning the instantiation to run (with
// resumeState set on success, clean for a day-0 replay otherwise).
//
// warm is the previous pass's end state (a taken ResumeHandle), or the
// zero value. The candidate scan runs regardless; warm only replaces the
// load of the candidate it describes — the newest compatible one, at the
// day and of the kind (full or delta) of the handle's last write, under
// this run's fingerprint and stage set. Anything else, and a warm
// restore that fails, goes to the backend path below.
//
// The single-process assumption of the original resolution does not hold
// for a serving daemon: a refresh pass may atomically put a new
// checkpoint over an existing day object, or retention may delete old
// days, between this run's listing and its read. An ENOENT on the
// candidate itself does not mean "no checkpoint" — it means the scan is
// stale, and settling for an older candidate (or day 0) would silently
// discard the incremental win. Instead the resolution rescans, bounded
// by ckptScanRetries; every other load failure — a corrupt object, a
// broken or missing delta parent — keeps the original semantics (skip to
// the next older candidate, fall back to day 0). Each failed restore may
// leave stages half-loaded, so the instantiation is rebuilt before the
// next attempt.
func resolveResume(plan *FigurePlan, x *planExec, src trace.Source, meta trace.Meta, cfg Config, warm ResumeHandle) *planExec {
	for attempt := 0; ; attempt++ {
		cands, stale := x.findCheckpoints(meta.Days - 1)
		if testCkptAfterScan != nil {
			testCkptAfterScan(attempt)
		}
		rescan := false
		for i, cand := range cands {
			if i == 0 && warm.describes(x, cand) {
				if err := x.restore(src, warm.st, warm.names, warm.parent); err == nil {
					x.resumeWarm = true
					return x
				}
				x = plan.instantiate(cfg, meta)
			}
			err := x.loadCheckpointChain(src, cand)
			if err == nil {
				return x
			}
			x = plan.instantiate(cfg, meta)
			if errors.Is(err, fs.ErrNotExist) {
				// The candidate vanished after the scan: prefer a fresh
				// scan (which may surface a newer replacement) over
				// quietly resuming from an older day.
				rescan = true
				break
			}
		}
		if (!rescan && !stale) || attempt >= ckptScanRetries {
			return x
		}
	}
}

// fetchChainParent resolves one link of a delta chain: the checkpoint at
// day whose exact bytes hash to wantSum — the parent this delta was
// diffed against, full or delta. Errors here must NOT satisfy
// errors.Is(err, fs.ErrNotExist): a missing or substituted parent means
// "this chain is dead, fall back to an older candidate", not "the scan
// is stale, rescan" — wrapping the backend's not-exist would burn
// resolveResume's bounded retries and land the run at day 0 instead of
// the older full sitting right there.
func (x *planExec) fetchChainParent(day int32, wantSum uint64) (data []byte, delta bool, err error) {
	for _, try := range []struct {
		name  string
		delta bool
	}{{checkpointFileName(day), false}, {deltaFileName(day), true}} {
		b, err := x.backend.Get(try.name)
		if err != nil {
			continue
		}
		if fnvSum(b) == wantSum {
			return b, try.delta, nil
		}
	}
	return nil, false, fmt.Errorf("core: delta parent day %d (sum %016x) missing or rewritten", day, wantSum)
}

// loadCheckpointChain reads the candidate, resolves its delta chain down
// to a full checkpoint if needed, and hands the decoded state and
// effective stage blobs to the restore tail. On any error the stages may
// be partially restored — the caller discards the whole instantiation and
// falls back.
func (x *planExec) loadCheckpointChain(src trace.Source, cand ckptCandidate) error {
	data, err := x.backend.Get(cand.name)
	if err != nil {
		// Propagated as-is: a vanished candidate is resolveResume's
		// rescan signal (unlike a vanished chain parent, see
		// fetchChainParent).
		return err
	}
	candSum := fnvSum(data)

	// Walk the chain: candidate-first, collecting deltas until a full
	// checkpoint grounds it.
	var chain []*checkpoint.DeltaFile
	cur, curDelta := data, cand.delta
	for curDelta {
		if len(chain) >= maxChainDepth {
			return fmt.Errorf("core: delta chain deeper than %d at day %d", maxChainDepth, cand.day)
		}
		df, err := checkpoint.ReadDelta(bytes.NewReader(cur))
		if err != nil {
			return err
		}
		if err := x.chainHeaderOK(df.Header); err != nil {
			return err
		}
		chain = append(chain, df)
		cur, curDelta, err = x.fetchChainParent(df.Header.ParentDay, df.Header.ParentSum)
		if err != nil {
			return err
		}
	}
	file, err := checkpoint.Read(bytes.NewReader(cur))
	if err != nil {
		return err
	}
	if file.Header.ConfigHash != x.ckptHash {
		return fmt.Errorf("core: chain base day %d has foreign fingerprint", file.Header.Day)
	}

	// Replay the chain newest-last onto the base: one adjacency
	// materialization regardless of depth, and each delta's changed
	// blobs override the running per-stage bytes.
	st, day := file.State, file.Header.Day
	blobs := file.Blobs
	if len(chain) > 0 {
		b := checkpoint.NewStateBuilder(file.State)
		eff := make([]checkpoint.StageBlob, len(blobs))
		copy(eff, blobs)
		prevDay := file.Header.Day
		for i := len(chain) - 1; i >= 0; i-- {
			df := chain[i]
			if df.Header.ParentDay != prevDay {
				return fmt.Errorf("core: delta day %d chains to day %d, parent is day %d", df.Header.Day, df.Header.ParentDay, prevDay)
			}
			if err := b.Apply(df.Patch); err != nil {
				return err
			}
			if len(df.Blobs) != len(eff) {
				return fmt.Errorf("core: delta day %d has %d blobs, chain has %d", df.Header.Day, len(df.Blobs), len(eff))
			}
			for j, db := range df.Blobs {
				if db.Name != eff[j].Name {
					return fmt.Errorf("core: delta blob %d is %q, chain has %q", j, db.Name, eff[j].Name)
				}
				if db.Changed {
					eff[j] = checkpoint.StageBlob{Name: db.Name, Data: db.Data}
				}
			}
			prevDay = df.Header.Day
		}
		st, err = b.State()
		if err != nil {
			return err
		}
		day, blobs = chain[0].Header.Day, eff
	}

	names := make([]string, len(blobs))
	raw := make([][]byte, len(blobs))
	for i, b := range blobs {
		names[i], raw[i] = b.Name, b.Data
	}
	return x.restore(src, st, names, &ckptParent{
		day:   day,
		sum:   candSum,
		nodes: st.Graph.NumNodes(),
		deg:   checkpoint.Degrees(st),
		blobs: raw,
		depth: len(chain),
	})
}

// restore is the restore tail both resume sources share: a checkpoint
// chain decoded from the backend (loadCheckpointChain) and the previous
// pass's end state (a ResumeHandle). It cross-checks st against the
// source, restores every state-plane stage from its blob (names[i] names
// the stage p.blobs[i] was saved by), and seeds the writer's parent
// summary — so the run's next checkpoint can be a delta against p — and
// the resume point. On error the stages may be partially restored.
func (x *planExec) restore(src trace.Source, st *trace.State, names []string, p *ckptParent) error {
	// Consistency probe: the restored graph must account for exactly the
	// events the trace holds through the checkpoint day (every event is
	// one node or one edge). This catches a trace regenerated with the
	// same seed but different generator knobs — identical fingerprint,
	// different stream — before it can silently serve stale results.
	if n, ok := trace.EventsThrough(src, p.day); ok {
		applied := int64(st.Graph.NumNodes()) + st.Graph.NumEdges()
		if n != applied {
			return fmt.Errorf("core: checkpoint day %d accounts for %d events, trace holds %d — not this trace's prefix", p.day, applied, n)
		}
	}
	stages := x.ckptStages()
	if len(p.blobs) != len(stages) || len(names) != len(stages) {
		return fmt.Errorf("core: checkpoint has %d stage blobs, run has %d stages", len(p.blobs), len(stages))
	}
	for i, s := range stages {
		if names[i] != s.Name() {
			return fmt.Errorf("core: checkpoint blob %d is %q, run stage is %q", i, names[i], s.Name())
		}
		if err := s.(engine.Checkpointer).LoadState(p.blobs[i]); err != nil {
			return fmt.Errorf("core: restore stage %s: %w", s.Name(), err)
		}
	}
	x.parent = p
	x.resumeState, x.resumeDay = st, p.day
	return nil
}

// chainHeaderOK validates one delta header against this run's identity:
// every link of a chain must carry the run's fingerprint and stage set
// (the candidate's header was vetted by the scan; intermediates were
// not), and must actually point backwards.
func (x *planExec) chainHeaderOK(h checkpoint.DeltaHeader) error {
	if h.ConfigHash != x.ckptHash {
		return fmt.Errorf("core: delta day %d has foreign fingerprint", h.Day)
	}
	if len(h.Stages) != len(x.ckptNames) {
		return fmt.Errorf("core: delta day %d has %d stages, run has %d", h.Day, len(h.Stages), len(x.ckptNames))
	}
	for i, s := range h.Stages {
		if s != x.ckptNames[i] {
			return fmt.Errorf("core: delta day %d stage %d is %q, run has %q", h.Day, i, s, x.ckptNames[i])
		}
	}
	if h.ParentDay >= h.Day {
		return fmt.Errorf("core: delta day %d chains forward to day %d", h.Day, h.ParentDay)
	}
	return nil
}

// CheckpointStat describes one checkpoint write — the observer payload
// surfaced on /statz (object size feeds the daemon's storage section,
// the latency its write-cost gauge).
type CheckpointStat struct {
	// Day is the checkpointed day.
	Day int32
	// Delta reports whether the object was a delta (vs a full container).
	Delta bool
	// Bytes is the written object's size.
	Bytes int64
	// Elapsed is the wall time of serialization plus backend put.
	Elapsed time.Duration
}

// CheckpointInfo describes one checkpoint object in a backend — the
// inventory row `rranalyze -info` prints.
type CheckpointInfo struct {
	Name       string
	Day        int32
	Delta      bool
	Size       int64
	ConfigHash uint64
	Stages     []string
	// ParentDay is the chained-to day (deltas only).
	ParentDay int32
	// Err records a header that would not parse; such an object is
	// unreadable by resume and a candidate for manual cleanup.
	Err string
}

// ListCheckpoints inventories the checkpoint objects in a backend,
// sorted by day ascending (fulls before deltas on a shared day). Objects
// under the checkpoint prefix whose names don't parse are skipped;
// objects whose headers don't parse are reported with Err set.
func ListCheckpoints(b storage.Backend) ([]CheckpointInfo, error) {
	objs, err := b.List(checkpointPrefix)
	if err != nil {
		return nil, err
	}
	var out []CheckpointInfo
	for _, o := range objs {
		day, isDelta, ok := parseCheckpointName(o.Name)
		if !ok {
			continue
		}
		info := CheckpointInfo{Name: o.Name, Day: day, Delta: isDelta, Size: o.Size, ParentDay: -1}
		if err := readCheckpointHeaderInto(b, o.Name, isDelta, &info); err != nil {
			info.Err = err.Error()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Day != out[j].Day {
			return out[i].Day < out[j].Day
		}
		return !out[i].Delta && out[j].Delta
	})
	return out, nil
}

// readCheckpointHeaderInto fills info from the object's header prefix.
func readCheckpointHeaderInto(b storage.Backend, name string, delta bool, info *CheckpointInfo) error {
	rc, err := b.OpenRange(name, 0, ckptHeaderProbe)
	if err != nil {
		return err
	}
	defer func() { _ = rc.Close() }()
	var r io.Reader = rc
	if delta {
		h, err := checkpoint.ReadDeltaHeader(r)
		if err != nil {
			return err
		}
		info.ConfigHash, info.Stages, info.ParentDay = h.ConfigHash, h.Stages, h.ParentDay
		return nil
	}
	h, err := checkpoint.ReadHeader(r)
	if err != nil {
		return err
	}
	info.ConfigHash, info.Stages = h.ConfigHash, h.Stages
	return nil
}
