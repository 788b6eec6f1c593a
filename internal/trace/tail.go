package trace

import (
	"bufio"
	"errors"
	"fmt"
	"os"
)

// TailProbe incrementally tracks a trace file that a writer may still be
// appending to (see DESIGN.md §9). Each Probe call re-examines the file
// and returns a TailSnapshot describing the *sealed prefix* — the events
// of every day that is provably complete — which is the only part of a
// growing trace an analysis may consume.
//
// The sealing rule: day D is sealed once an event of a later day has been
// observed (events are written in non-decreasing day order, so a day-D+1
// event proves day D gained its last event), or once the file is
// finalized (a valid index footer plus a back-patched header count mean
// the writer's Close ran and every day is complete). The trailing,
// still-growing day is therefore never sealed until the writer moves past
// it — that is what makes figures computed from a snapshot reproducible
// against a from-zero run over the eventually-finalized file.
//
// The probe tolerates everything a live writer does to the file:
//
//   - A stale header. An appender (OpenAppend) leaves the pre-append
//     header in place until its Close, so the header's count is treated
//     as a floor, never the stream's extent — the probe finds the extent
//     by decoding.
//   - A missing index footer. The appender truncates it away while it
//     holds the file; the probe builds its own day index as it decodes.
//   - A torn tail. A partially flushed final event decodes as a
//     truncation; the probe forgives it, keeps its frontier at the last
//     complete event, and re-reads the few partial bytes next time.
//
// Decode anomalies that a live writer cannot produce (a bad kind byte,
// id overflow) are reported on the snapshot's Anomaly field without
// advancing the frontier: the sealed prefix stays serveable while the
// operator investigates.
//
// Probes are incremental: each call decodes only the bytes appended
// since the previous call (the first probe of an already-finalized file
// trusts its header and footer outright, like OpenTrace). Both
// containers are probed the same way: the header and footer are read as
// OpenTrace reads them (readHead), a segmented file's new frames are
// found by the one frame walk (scanSegFrames), and one decode loop reads
// the raw stream through FileSource's mapper (rawReader), whose frame
// loader fetches, checks and inflates each frame for cursors too. A
// TailProbe is not safe for concurrent use; callers serialize Probe.
type TailProbe struct {
	path string
	fi   os.FileInfo // identity of the file the state below describes

	// The container as read so far: the header's meta, the raw offset
	// of the first event, and a segmented file's frames.
	headerMeta Meta
	start      int64
	framed     bool
	segs       []segEntry // every complete frame the walk has found

	cur     tailPos // decode frontier: boundary after the last complete event
	curDay  int32   // day-delta watermark at the frontier
	curMeta Meta    // counters accumulated over [0, cur.count)

	sealed      tailPos // boundary before the trailing day's first event
	sealedMeta  Meta    // counters accumulated over [0, sealed.count)
	trailingDay int32   // day of the events past sealed; -1 before any event
	sealedValid bool    // false after a trusted-finalized load, until a new
	// day barrier (or a reset) re-derives the sealed state by decoding

	index []DayIndexEntry // first-event-of-day entries, entries never mutated
}

// tailPos is one event boundary in the raw stream: an offset and how
// many events precede it.
type tailPos struct {
	off   int64
	count uint64
}

// NewTailProbe returns a probe for the trace file at path. The file need
// not exist yet; Probe reports the open error until it does.
func NewTailProbe(path string) *TailProbe { return &TailProbe{path: path} }

// reset clears all decode state; the next Probe re-derives it from
// scratch.
func (p *TailProbe) reset() {
	*p = TailProbe{
		path:        p.path,
		curMeta:     Meta{MergeDay: -1},
		sealedMeta:  Meta{MergeDay: -1},
		trailingDay: -1,
		sealedValid: true,
	}
}

// Probe re-examines the file and returns the current sealed-prefix
// snapshot. An error means the file could not be probed at all (missing,
// unreadable, or its header is not yet decodable — a from-scratch flat
// writer that has not finalized); the caller backs off and retries. Tail
// decode anomalies ride on the snapshot instead: the sealed prefix they
// leave behind is still valid.
func (p *TailProbe) Probe() (*TailSnapshot, error) {
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The header and footer are re-read every probe: a writer's Close
	// appends the footer and back-patches the header in place.
	h := &blobHandle{ra: f}
	hd, err := readHead(h, fi.Size())
	if err != nil {
		return nil, err
	}
	if !hd.final && !hd.framed {
		// A flat file's header is written at construction, before the
		// seed and merge day are set (a segmented file's waits for the
		// first frame), so a poisoned flat header vouches for nothing yet.
		return nil, fmt.Errorf("%w: %s: count slot not back-patched", ErrNotFinalized, p.path)
	}
	// The footer, when present, bounds the event stream. Its count is
	// not checked here: during an appender's Close there is a moment
	// when the new footer is on disk but the header is still old.
	visible := fi.Size()
	if hd.footer >= 0 {
		visible = hd.footer
	}
	if p.fi == nil || !os.SameFile(p.fi, fi) || p.framed != hd.framed || p.start != hd.start || visible < p.readTo() {
		p.reset()
		p.framed, p.start, p.cur.off = hd.framed, hd.start, hd.start
		if hd.final && hd.index != nil {
			// A finalized file on a clean slate: trust header and footer
			// the way OpenTrace does, skipping the O(events) decode.
			return p.trustFinalized(fi, hd), nil
		}
	}
	p.fi = fi
	p.headerMeta = hd.meta

	// The visible end of the event stream: a segmented file's ends with
	// its last complete frame; a frame still being written is a torn
	// tail to wait out.
	end, walkErr := visible, error(nil)
	if p.framed {
		p.segs, walkErr = scanSegFrames(h, visible, p.segs)
		end = frameEnd(p.segs).rawStart
	}
	var anomaly error
	if end > p.cur.off {
		var rescan bool
		if anomaly, rescan = p.decode(h, end, hd.footer >= 0); rescan {
			p.reset()
			return p.Probe()
		}
	}
	if anomaly == nil {
		anomaly = walkErr
	}
	// Finalized: Close ran, and the decode reached the footer with the
	// header's count, on days the header's day count covers.
	finalized := hd.final && hd.footer >= 0 && anomaly == nil &&
		p.cur.off == end && p.cur.count == hd.count && (hd.count == 0 || p.curDay < hd.meta.Days)
	return p.snapshot(finalized, anomaly), nil
}

// readTo is the file offset up to which the probe has read the event
// stream: the frontier in a flat file, the last frame found in a
// segmented one.
func (p *TailProbe) readTo() int64 {
	if p.framed {
		return frameEnd(p.segs).fileOff
	}
	return p.cur.off
}

// decode runs the raw stream from the frontier to end through the
// sealing machine. It returns the anomaly that stopped it, if any, and
// rescan=true when the events continue the final day of a
// trusted-finalized load (the file was extended in place): the sealed
// boundary then lies in a prefix never decoded. A segmented file's
// frame loads are uncached (a growing file has no stable identity), so
// they count as frame-cache misses.
func (p *TailProbe) decode(h *blobHandle, end int64, footer bool) (anomaly error, rescan bool) {
	fs := FileSource{framed: p.framed, segs: p.segs}
	r, err := fs.rawReader(h, p.cur.off, end)
	if err != nil {
		return err, false
	}
	base := p.cur.off
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	dec := resumeDecoder(br, maxEventCount, p.curDay)
	for {
		ev, ok, err := dec.Next()
		switch {
		case errors.Is(err, ErrTruncated):
			// The stream ran out: either exactly at the frontier (a clean
			// boundary) or inside an event (a torn tail write). Both are
			// normal under a live writer; a finalized stream ending
			// mid-event is not.
			if footer && p.cur.off != end {
				return fmt.Errorf("trace: finalized stream ends mid-event: %w", err), false
			}
			return nil, false
		case err != nil:
			return err, false
		case !ok:
			return nil, false
		case !p.observe(ev, base+cr.n-int64(br.Buffered())):
			return nil, true
		}
	}
}

// trustFinalized loads a finalized file on a clean slate from its header
// and footer alone, skipping the O(events) decode: the frontier is the
// stream's end on its final day. The sealed state is deliberately left
// unset (sealedValid=false) — if the file is later reopened for append,
// the first new day barrier re-derives it, cheaper than a full decode.
func (p *TailProbe) trustFinalized(fi os.FileInfo, hd containerHead) *TailSnapshot {
	p.fi = fi
	p.headerMeta = hd.meta
	p.segs = hd.segs
	p.cur = tailPos{off: hd.end, count: hd.count}
	p.curMeta = hd.meta
	if n := len(hd.index); n > 0 {
		p.curDay = hd.index[n-1].Day
	}
	p.sealedValid = false
	p.index = hd.index
	return p.snapshot(true, nil)
}

// observe runs one decoded event through the day-barrier sealing
// machine; end is the raw offset just past the event. It reports false,
// changing nothing, when the event continues the final day of a
// trusted-finalized load: the sealed boundary then lies inside a prefix
// never decoded, and the caller must rescan from scratch.
func (p *TailProbe) observe(ev Event, end int64) bool {
	if !p.sealedValid && ev.Day <= p.curDay {
		return false
	}
	if p.cur.count == 0 || ev.Day > p.curDay {
		p.sealed = p.cur
		p.sealedMeta = p.curMeta
		p.trailingDay = ev.Day
		p.sealedValid = true
		p.index = append(p.index, DayIndexEntry{
			Day: ev.Day, Offset: p.cur.off, Event: p.cur.count, PrevDay: p.curDay,
		})
	}
	p.curMeta.Accumulate(ev)
	p.cur.count++
	p.curDay = ev.Day
	p.cur.off = end
	return true
}

// snapshot renders the probe's current state.
func (p *TailProbe) snapshot(finalized bool, anomaly error) *TailSnapshot {
	s := &TailSnapshot{
		Path:           p.path,
		Anomaly:        anomaly,
		FrontierDay:    p.curDay,
		FrontierEvents: int64(p.cur.count),
		FrontierOffset: p.cur.off,
		start:          p.start,
	}
	if p.framed {
		s.segs = p.segs[:len(p.segs):len(p.segs)]
	}
	if p.cur.count == 0 {
		s.FrontierDay = -1
	}
	switch {
	case finalized:
		s.Finalized = true
		s.size = p.fi.Size()
		s.Meta = p.headerMeta
		s.SealedDay = p.headerMeta.Days - 1
		s.Events = int64(p.cur.count)
		s.EndOffset = p.cur.off
		s.index = p.index[:len(p.index):len(p.index)]
	case !p.sealedValid:
		// Trusted-finalized file reopened for append, no new day barrier
		// yet: the pre-append header still vouches for every event we
		// have seen (the frontier equals its count), so everything
		// through its last day stays sealed.
		s.Meta = p.headerMeta
		s.SealedDay = p.headerMeta.Days - 1
		s.Events = int64(p.cur.count)
		s.EndOffset = p.cur.off
		s.index = p.index[:len(p.index):len(p.index)]
	case p.trailingDay < 0:
		// No complete event yet: nothing is sealed.
		s.SealedDay = -1
		s.Meta = Meta{MergeDay: -1, Seed: p.headerMeta.Seed}
		s.EndOffset = p.start
	default:
		m := p.sealedMeta
		// Days is set from the barrier, not the counters: event-free days
		// between the last sealed event and the trailing day are complete
		// too.
		m.Days = p.trailingDay
		m.Seed = p.headerMeta.Seed
		m.MergeDay = -1
		if hd := p.headerMeta.MergeDay; hd >= 0 && hd < p.trailingDay {
			m.MergeDay = hd
		}
		s.Meta = m
		s.SealedDay = p.trailingDay - 1
		s.Events = int64(p.sealed.count)
		s.EndOffset = p.sealed.off
		// Exclude the trailing (unsealed) day's index entry.
		k := len(p.index)
		if k > 0 && p.index[k-1].Event >= p.sealed.count {
			k--
		}
		s.index = p.index[:k:k]
	}
	return s
}

// TailSnapshot is one probe's view of a growing trace: the sealed prefix
// (serveable) and the decode frontier (diagnostic). Snapshots are
// immutable; Source adapts the sealed prefix to the analysis data plane.
type TailSnapshot struct {
	// Path is the probed file.
	Path string
	// Meta describes the sealed prefix: Days = SealedDay+1, counters
	// accumulated over exactly the sealed events, Seed (and MergeDay,
	// once the merge day is sealed) from the file header. For a
	// Finalized file it is the header meta verbatim.
	Meta Meta
	// SealedDay is the last complete day, -1 when nothing is sealed yet.
	SealedDay int32
	// Events is the number of events in the sealed prefix.
	Events int64
	// EndOffset is the byte offset where the sealed prefix ends.
	EndOffset int64
	// Finalized reports that the writer's Close has run: header and
	// footer are consistent and every day — including the last — is
	// sealed.
	Finalized bool
	// FrontierDay/FrontierEvents/FrontierOffset locate the decode
	// frontier: the last complete event observed, sealed or not.
	// FrontierDay is -1 before any event.
	FrontierDay    int32
	FrontierEvents int64
	FrontierOffset int64
	// Anomaly is a tail decode failure that a live writer cannot
	// explain (corruption past the sealed prefix). The sealed prefix
	// itself is unaffected.
	Anomaly error

	start int64
	size  int64 // file size of a Finalized snapshot, for its frame-cache identity
	index []DayIndexEntry
	segs  []segEntry // non-nil for a segmented file; offsets above are raw-stream
}

// Source adapts the sealed prefix to a MetaSource: a FileSource over
// the probed file, count-bounded by the snapshot's event count, so a
// writer appending past the sealed prefix — or finalizing the file —
// never perturbs an open pass, and for a segmented file the frames past
// the sealed boundary are never fetched. A Finalized snapshot's frames go
// through the frame cache under the identity OpenTrace gives the same
// file; a growing file has no stable identity, so its frames are served
// uncached. Returns nil when the snapshot holds no sealed events.
func (s *TailSnapshot) Source() MetaSource {
	if s.Events <= 0 {
		return nil
	}
	fs := &FileSource{
		Path:   s.Path,
		blob:   fileBlob{path: s.Path},
		meta:   s.Meta,
		events: uint64(s.Events),
		start:  s.start,
		index:  s.index,
		framed: s.segs != nil, // a sealed event lives in some frame
		segs:   s.segs,
	}
	if s.Finalized {
		fs.cacheID = fileCacheID(s.Path, s.size, fs.events)
	}
	return fs
}
