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
// compatibility fingerprint, writing at the engine's cadence hook (a full
// checkpoint or a patch against the previous one, per the tiered
// cadence), resolving/restoring the newest usable chain for a resume, and
// retention.
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
)

// maxChainDepth bounds how many deltas a resume will walk before giving
// up on a candidate — a corrupted ParentDay must not send resolution on
// an unbounded tour of the backend.
const maxChainDepth = 64

// ckptHeaderPrefix is how many bytes of an object the header scan reads
// first: a header is about 100 bytes (magic, hashes, stage names). A
// header that does not fit is read again from a ckptHeaderProbe prefix,
// a comfortable ceiling even at maxSections stages.
const (
	ckptHeaderPrefix = 4 << 10
	ckptHeaderProbe  = 64 << 10
)

// checkpointFileName renders the canonical day-addressed object name of
// a checkpoint, full or not: the kind is in the header.
func checkpointFileName(day int32) string {
	return fmt.Sprintf("%s%08d%s", checkpointPrefix, day, checkpointExt)
}

// parseCheckpointName inverts checkpointFileName.
func parseCheckpointName(name string) (day int32, ok bool) {
	mid, ok := strings.CutPrefix(name, checkpointPrefix)
	if mid, ok = strings.CutSuffix(mid, checkpointExt); !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(mid, 10, 32)
	if err != nil || v < 0 {
		return 0, false
	}
	return int32(v), true
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
// is derived from the community result on every run, resumed or not, so
// it constrains nothing.)
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

// fnvSum is the checkpoint plane's object identity hash: a patch records
// the FNV-64a of its parent's exact bytes, so a chain only resolves
// against the very objects it was written against.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ckptParent is the writer's summary of the last checkpoint it wrote (or
// restored): exactly what the next patch needs — the parent's identity
// (day, byte hash), its state shape (degree vector), its stage blobs'
// sums for unchanged-detection, each engine.Patcher stage's mark for its
// stage patch, and its position in the chain — plus the blob and object
// lengths the next full write pre-sizes its buffers from. Holding this
// instead of the whole parent state keeps the delta path O(nodes) in
// memory, not O(edges), and holding blob sums and marks instead of the
// blobs keeps it from duplicating the live stages a ResumeHandle keeps.
// The writer commits a new summary only once the object's Put succeeds,
// so a failed write leaves the marks of the last object that exists.
type ckptParent struct {
	day   int32
	sum   uint64
	deg   []int32
	sums  []uint64      // checkpoint.BlobSums of the stage blobs; a patched stage's entry is unused
	marks []engine.Mark // each Patcher stage's Mark (nil for the other stages)
	depth int           // 0 = full checkpoint, k = k-th delta in its chain
	lens  []int         // each stage's last whole blob's length
	size  int           // the last full object's length
}

// savedStages is one checkpoint's stage sections: each stage's blob,
// whether it is a patch, and each Patcher stage's mark after the save.
type savedStages struct {
	blobs [][]byte
	patch []bool
	marks []engine.Mark
}

// saveStages serializes every stage for the next object. With delta set,
// each Patcher stage writes its patch against the parent's mark; every
// other stage writes its whole SaveState, pre-sized from the parent's
// blob of that stage.
func (x *planExec) saveStages(p *ckptParent, delta bool) (savedStages, error) {
	out := savedStages{
		blobs: make([][]byte, len(x.stages)),
		patch: make([]bool, len(x.stages)),
		marks: make([]engine.Mark, len(x.stages)),
	}
	for i, s := range x.stages {
		var buf bytes.Buffer
		pt, patcher := s.(engine.Patcher)
		var err error
		if out.patch[i] = delta && patcher && p.marks[i] != nil; out.patch[i] {
			err = pt.SavePatch(&buf, p.marks[i])
		} else {
			if p != nil {
				presize(&buf, p.lens[i])
			}
			err = s.(engine.Checkpointer).SaveState(&buf)
		}
		if err != nil {
			return savedStages{}, fmt.Errorf("stage %s: %w", s.Name(), err)
		}
		out.blobs[i] = buf.Bytes()
		if patcher {
			out.marks[i] = pt.Mark()
		}
	}
	return out, nil
}

// blobLens lists each blob's length.
func blobLens(blobs [][]byte) []int {
	out := make([]int, len(blobs))
	for i, b := range blobs {
		out[i] = len(b)
	}
	return out
}

// presize grows buf for an object about as long as the previous one of
// its kind, n bytes, plus room for a day's growth, so the encoder's
// spills append without regrowing the buffer.
func presize(buf *bytes.Buffer, n int) {
	buf.Grow(n + n/16)
}

// ResumeHandle is a single-use, in-memory resume point: the end state of
// a successful checkpointed pass whose last checkpoint is the state it
// ended on. It holds that pass's exec — its live stages, engine and CPU
// budget, and the checkpoint writer's parent summary (day, object hash,
// chain depth, degree vector, stage blob sums, patch marks) under the run's
// fingerprint and stage set — plus the live shared state itself. A next
// pass over the grown trace that the handle describes adopts the exec and
// continues its stages where they stopped: it fetches, hashes and decodes
// nothing, and calls no LoadState. The handle trusts its own last write
// exactly as a run already does between cadence checkpoints. Get one from
// ContinueFigures; a pass given a handle consumes it whether or not it
// can use it, and a pass that fails leaves none.
type ResumeHandle struct {
	x  *planExec
	st *trace.State
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

// describes reports whether the handle is the candidate's object as the
// run x would load it — same fingerprint and stage set, same day — and
// its exec's CPU budget is x's, so x can continue on its pool.
func (h *ResumeHandle) describes(x *planExec, cand ckptCandidate) bool {
	w := h.x
	return w != nil && w.ckptHash == x.ckptHash && w.parent.day == cand.day &&
		slices.Equal(w.ckptNames, x.ckptNames) && w.rt.pool.Workers() == x.rt.pool.Workers()
}

// adopt makes the handle's exec the run in place of x, a fresh
// instantiation of plan for this call: once the handle's state proves to
// be src's prefix (checkPrefix), the exec is bound to x's config, meta
// and plan, and resumes from its own end state. It returns nil when the
// probe rejects the state.
func (h *ResumeHandle) adopt(src trace.Source, plan *FigurePlan, x *planExec) *planExec {
	w := h.x
	if checkPrefix(src, h.st, w.parent.day) != nil {
		return nil
	}
	w.bind(plan, x.rt.cfg, x.rt.meta)
	w.resumeState, w.resumeDay, w.resumeWarm = h.st, w.parent.day, true
	return w
}

// resumeHandle returns the pass's exec and end state as a ResumeHandle
// when its last checkpoint describes that state (nil otherwise:
// checkpoints off, none written or restored, or state past the last one).
func (x *planExec) resumeHandle(st *trace.State) *ResumeHandle {
	if x.parent == nil || x.parent.day != st.Day {
		return nil
	}
	return &ResumeHandle{x: x, st: st}
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
	x.ckptNames = stageNames(x.stages)
	x.ckptHash = configFingerprint(cfg, x.rt.meta, x.ckptNames)
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	x.eng.EnableCheckpoints(every, x.writeCheckpoint)
}

// writeCheckpoint serializes the run at one day boundary. At the tiered
// cadence (Config.CheckpointFullEvery = F) one checkpoint in F is full
// and the rest are patches against the previous checkpoint: what the
// append-only replay appended since, each engine.Patcher stage's patch
// against its mark, and only the other stage blobs whose bytes actually
// changed. Whole objects go through the backend's atomic Put, so readers
// only ever see complete checkpoints. Any reason a patch can't be written
// (first checkpoint, a state that does not extend the parent) falls back
// to a full — a delta is an optimization, never a requirement.
func (x *planExec) writeCheckpoint(day int32, st *trace.State) error {
	start := time.Now()
	p := x.parent
	var buf bytes.Buffer
	h := checkpoint.Header{Day: day, ParentDay: -1, ConfigHash: x.ckptHash, Stages: x.ckptNames}
	var saved savedStages
	depth := 0
	if p != nil && p.depth+1 < x.rt.cfg.CheckpointFullEvery && p.day < day {
		var err error
		if saved, err = x.saveStages(p, true); err != nil {
			return err
		}
		dh := h
		dh.ParentDay, dh.ParentSum = p.day, p.sum
		if checkpoint.Write(&buf, dh, st, saved.blobs, saved.patch, p.deg, p.sums) == nil {
			h, depth = dh, p.depth+1
		}
	}
	if depth == 0 {
		var err error
		if saved, err = x.saveStages(p, false); err != nil {
			return err
		}
		buf.Reset()
		if p != nil {
			presize(&buf, p.size)
		}
		if err := checkpoint.Write(&buf, h, st, saved.blobs, nil, nil, nil); err != nil {
			return err
		}
	}
	if err := x.backend.Put(checkpointFileName(day), buf.Bytes()); err != nil {
		return err
	}
	next := &ckptParent{day: day, sum: fnvSum(buf.Bytes()), deg: checkpoint.Degrees(st), marks: saved.marks, depth: depth,
		sums: make([]uint64, len(saved.blobs)), lens: make([]int, len(saved.blobs)), size: buf.Len()}
	for i, b := range saved.blobs {
		if saved.patch[i] {
			next.sums[i], next.lens[i] = p.sums[i], p.lens[i]
		} else {
			next.sums[i], next.lens[i] = checkpoint.BlobSum(b), len(b)
		}
	}
	if depth > 0 {
		next.size = p.size
	}
	x.parent = next
	if obs := x.rt.cfg.CheckpointObserver; obs != nil {
		obs(CheckpointStat{Day: day, Delta: depth > 0, Bytes: int64(buf.Len()), Elapsed: time.Since(start)})
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
	var mine []ckptCandidate
	var fullDays []int32
	for _, o := range objs {
		day, ok := parseCheckpointName(o.Name)
		if !ok {
			continue
		}
		h, match, _ := x.probe(o.Name)
		if !match {
			continue
		}
		mine = append(mine, ckptCandidate{o.Name, day})
		if h.Full() {
			fullDays = append(fullDays, day)
		}
	}
	if len(fullDays) <= keep {
		return
	}
	sort.Slice(fullDays, func(i, j int) bool { return fullDays[i] > fullDays[j] })
	cutoff := fullDays[keep-1]
	for _, c := range mine {
		if c.day < cutoff {
			_ = x.backend.Delete(c.name)
		}
	}
}

// ckptCandidate is one resolvable checkpoint object.
type ckptCandidate struct {
	name string
	day  int32
}

// findCheckpoints resolves the checkpoints usable by this run — every
// checkpoint day <= maxDay whose header carries this run's exact stage
// set and config fingerprint — newest first. The caller restores the
// first whose chain loads cleanly; unreadable candidates are skipped,
// never fatal. stale reports that a listed object vanished between the
// listing and the header probe — the signature of a concurrent writer
// rotating the backend (atomic put over an existing name, or retention
// deleting old days) — so the caller knows a rescan may see a newer
// object than any candidate returned here.
func (x *planExec) findCheckpoints(maxDay int32) (cands []ckptCandidate, stale bool) {
	objs, err := x.backend.List(checkpointPrefix)
	if err != nil {
		return nil, false
	}
	for _, o := range objs {
		if d, ok := parseCheckpointName(o.Name); ok && d <= maxDay {
			cands = append(cands, ckptCandidate{name: o.Name, day: d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].day > cands[j].day })
	out := cands[:0]
	for _, c := range cands {
		_, ok, notExist := x.probe(c.name)
		stale = stale || notExist
		if ok {
			out = append(out, c)
		}
	}
	return out, stale
}

// probe reads a checkpoint object's header and reports whether a run
// with this run's stage set and fingerprint wrote it; notExist
// distinguishes an object that vanished mid-scan from one that exists but
// doesn't match.
func (x *planExec) probe(name string) (h checkpoint.Header, ok, notExist bool) {
	h, err := readHeaderAt(x.backend, name)
	return h, err == nil && x.matches(h), errors.Is(err, fs.ErrNotExist)
}

// matches reports whether a checkpoint header carries this run's
// fingerprint and stage set.
func (x *planExec) matches(h checkpoint.Header) bool {
	return h.ConfigHash == x.ckptHash && slices.Equal(h.Stages, x.ckptNames)
}

// readHeaderAt decodes an object's header from a bounded prefix of it —
// resolution and retention scan every candidate and must not pay
// whole-object reads for each. It reads ckptHeaderPrefix bytes, and a
// ckptHeaderProbe prefix only when the header runs past them.
func readHeaderAt(b storage.Backend, name string) (checkpoint.Header, error) {
	h, err := readHeaderPrefix(b, name, ckptHeaderPrefix)
	if errors.Is(err, checkpoint.ErrTruncated) {
		h, err = readHeaderPrefix(b, name, ckptHeaderProbe)
	}
	return h, err
}

// readHeaderPrefix decodes an object's header from its first n bytes.
func readHeaderPrefix(b storage.Backend, name string, n int64) (checkpoint.Header, error) {
	rc, err := b.OpenRange(name, 0, n)
	if err != nil {
		return checkpoint.Header{}, err
	}
	defer func() { _ = rc.Close() }()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return checkpoint.Header{}, err
	}
	return checkpoint.ReadHeader(raw)
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
// warm is the previous pass's exec and end state (a taken ResumeHandle),
// or the zero value. The candidate scan runs regardless; warm only
// replaces the load of the candidate it describes — the newest compatible
// one, at the day of the handle's last write, under this run's
// fingerprint, stage set and CPU budget — and then its exec is the run.
// Anything else, and a handle whose state is not the trace's prefix, goes
// to the backend path below.
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
				if w := warm.adopt(src, plan, x); w != nil {
					return w
				}
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

// fetchChainParent resolves one link of a chain: the checkpoint at day
// whose exact bytes hash to wantSum — the parent the child was written
// against. Errors here must NOT satisfy errors.Is(err, fs.ErrNotExist): a
// missing or substituted parent means "this chain is dead, fall back to
// an older candidate", not "the scan is stale, rescan" — wrapping the
// backend's not-exist would burn resolveResume's bounded retries and land
// the run at day 0 instead of the older full sitting right there.
func (x *planExec) fetchChainParent(day int32, wantSum uint64) ([]byte, error) {
	b, err := x.backend.Get(checkpointFileName(day))
	if err != nil || fnvSum(b) != wantSum {
		return nil, fmt.Errorf("core: chain parent day %d (sum %016x) missing or rewritten", day, wantSum)
	}
	return b, nil
}

// loadCheckpointChain reads the candidate, walks its parents down to a
// full checkpoint, applies the links oldest first into one state, and
// hands that state and the effective stage blobs to the restore tail. On
// any error the stages may be partially restored — the caller discards
// the whole instantiation and falls back.
func (x *planExec) loadCheckpointChain(src trace.Source, cand ckptCandidate) error {
	data, err := x.backend.Get(cand.name)
	if err != nil {
		// Propagated as-is: a vanished candidate is resolveResume's
		// rescan signal (unlike a vanished chain parent, see
		// fetchChainParent).
		return err
	}
	candSum := fnvSum(data)
	// Every link must carry the run's fingerprint and stage set: the
	// scan vetted the candidate's header, not its parents'.
	links := [][]byte{data}
	for {
		h, err := checkpoint.ReadHeader(data)
		if err != nil {
			return err
		}
		if !x.matches(h) {
			return fmt.Errorf("core: checkpoint day %d has a foreign fingerprint or stage set", h.Day)
		}
		if h.Full() {
			break
		}
		if len(links) > maxChainDepth {
			return fmt.Errorf("core: delta chain deeper than %d at day %d", maxChainDepth, cand.day)
		}
		if data, err = x.fetchChainParent(h.ParentDay, h.ParentSum); err != nil {
			return err
		}
		links = append(links, data)
	}
	var c checkpoint.Chain
	for i := len(links) - 1; i >= 0; i-- {
		if err := c.Apply(links[i]); err != nil {
			return err
		}
	}
	return x.restore(src, c.State, c.Header.Stages, c.Blobs, c.Patches, &ckptParent{
		day:   c.Header.Day,
		sum:   candSum,
		deg:   checkpoint.Degrees(c.State),
		sums:  checkpoint.BlobSums(c.Blobs),
		depth: len(links) - 1,
		lens:  blobLens(c.Blobs),
		size:  len(links[len(links)-1]),
	})
}

// checkPrefix is the consistency probe of every resume: the state st at
// the end of day must account for exactly the events the trace holds
// through that day (every event is one node or one edge). This catches a
// trace regenerated with the same seed but different generator knobs —
// identical fingerprint, different stream — before it can silently serve
// stale results.
func checkPrefix(src trace.Source, st *trace.State, day int32) error {
	if n, ok := trace.EventsThrough(src, day); ok {
		applied := int64(st.Graph.NumNodes()) + st.Graph.NumEdges()
		if n != applied {
			return fmt.Errorf("core: checkpoint day %d accounts for %d events, trace holds %d — not this trace's prefix", day, applied, n)
		}
	}
	return nil
}

// restore is the tail of a resume from the backend: it cross-checks the
// decoded chain's state st against the source, restores every stage from
// its base blob and then its patches in order (names[i] names the stage
// blobs[i] and patches[i] were saved by), and seeds the writer's parent
// summary — so the run's next checkpoint can be a delta against p, with
// each Patcher stage's mark taken from its restored state — and the
// resume point. On error the stages may be partially restored.
func (x *planExec) restore(src trace.Source, st *trace.State, names []string, blobs [][]byte, patches [][][]byte, p *ckptParent) error {
	if err := checkPrefix(src, st, p.day); err != nil {
		return err
	}
	stages := x.stages
	if len(blobs) != len(stages) || len(patches) != len(stages) || len(names) != len(stages) {
		return fmt.Errorf("core: checkpoint has %d stage blobs, run has %d stages", len(blobs), len(stages))
	}
	p.marks = make([]engine.Mark, len(stages))
	for i, s := range stages {
		if names[i] != s.Name() {
			return fmt.Errorf("core: checkpoint blob %d is %q, run stage is %q", i, names[i], s.Name())
		}
		if err := s.(engine.Checkpointer).LoadState(blobs[i]); err != nil {
			return fmt.Errorf("core: restore stage %s: %w", s.Name(), err)
		}
		pt, patcher := s.(engine.Patcher)
		if !patcher {
			if len(patches[i]) > 0 {
				return fmt.Errorf("core: checkpoint patches stage %s, which takes no patches", s.Name())
			}
			continue
		}
		for k, patch := range patches[i] {
			if err := pt.LoadPatch(patch); err != nil {
				return fmt.Errorf("core: restore stage %s, patch %d: %w", s.Name(), k+1, err)
			}
		}
		p.marks[i] = pt.Mark()
	}
	x.parent = p
	x.resumeState, x.resumeDay = st, p.day
	return nil
}

// CheckpointStat describes one checkpoint write — the observer payload
// surfaced on /statz (object size feeds the daemon's storage section,
// the latency its write-cost gauge).
type CheckpointStat struct {
	// Day is the checkpointed day.
	Day int32
	// Delta reports whether the object was a delta (vs a full checkpoint).
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
// sorted by day ascending. Objects under the checkpoint prefix whose
// names don't parse are skipped; objects whose headers don't parse
// (another format version included) are reported with Err set.
func ListCheckpoints(b storage.Backend) ([]CheckpointInfo, error) {
	objs, err := b.List(checkpointPrefix)
	if err != nil {
		return nil, err
	}
	var out []CheckpointInfo
	for _, o := range objs {
		day, ok := parseCheckpointName(o.Name)
		if !ok {
			continue
		}
		info := CheckpointInfo{Name: o.Name, Day: day, Size: o.Size, ParentDay: -1}
		if h, err := readHeaderAt(b, o.Name); err != nil {
			info.Err = err.Error()
		} else {
			info.Delta, info.ConfigHash, info.Stages, info.ParentDay = !h.Full(), h.ConfigHash, h.Stages, h.ParentDay
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out, nil
}
