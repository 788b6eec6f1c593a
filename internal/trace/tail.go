package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// trusts its header and footer outright, like OpenTrace). A
// TailProbe is not safe for concurrent use; callers serialize Probe.
type TailProbe struct {
	path string
	fi   os.FileInfo // identity of the file the state below describes

	start       int64 // byte offset of the first event (end of header)
	headerMeta  Meta
	headerCount uint64

	cur     tailPos // decode frontier: boundary after the last complete event
	curDay  int32   // day-delta watermark at the frontier
	curMeta Meta    // counters accumulated over [0, cur.count)

	sealed      tailPos // boundary before the trailing day's first event
	sealedMeta  Meta    // counters accumulated over [0, sealed.count)
	trailingDay int32   // day of the events past sealed; -1 before any event
	sealedValid bool    // false after a trusted-finalized load, until a new
	// day barrier (or a reset) re-derives the sealed state by decoding

	index []DayIndexEntry // first-event-of-day entries, entries never mutated

	seg *segProbe // non-nil while probing a segmented (RRS1) file
}

// segProbe is the extra frontier state a segmented file needs: the scan
// position in *file* coordinates (frames are fetched and checksummed
// whole), while the inherited cur/sealed positions run in *raw-stream*
// coordinates — the address space the day index and any snapshot source
// operate in. Each complete frame is decompressed exactly once, when the
// scan first crosses it.
type segProbe struct {
	frameOff int64 // file offset of the next unscanned frame
	rawOff   int64 // raw-stream offset corresponding to frameOff
	segs     []segEntry
}

// tailPos is one event boundary in the stream: a byte offset and how many
// events precede it.
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
	p.fi = nil
	p.cur = tailPos{}
	p.curDay = 0
	p.curMeta = Meta{MergeDay: -1}
	p.sealed = tailPos{}
	p.sealedMeta = Meta{MergeDay: -1}
	p.trailingDay = -1
	p.sealedValid = true
	p.index = nil
	p.seg = nil
}

// Probe re-examines the file and returns the current sealed-prefix
// snapshot. An error means the file could not be probed at all (missing,
// unreadable, or its header is not yet decodable — a from-scratch writer
// that has not finalized); the caller backs off and retries. Tail decode
// anomalies ride on the snapshot instead: the sealed prefix they leave
// behind is still valid.
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
	// Dispatch on the container magic: a segmented (compressed) file has
	// its own frame-at-a-time probing path.
	var mag [4]byte
	if _, err := f.ReadAt(mag[:], 0); err != nil {
		return nil, err // shorter than a magic: not probeable yet
	}
	if mag == segMagic {
		return p.probeSeg(f, fi)
	}
	// The header is re-read every probe: an appender's Close back-patches
	// it in place (and a from-scratch writer's header stays poisoned —
	// undecodable — until its Close, which surfaces here as an error).
	meta, count, start, err := parseStreamHeader(f)
	if err != nil {
		return nil, err
	}
	// The footer bounds the event stream when present. Validity here is
	// structural (magic, CRC) only — during the writer's Close there is a
	// moment when the new footer is on disk but the header is still old,
	// and using the stale count to judge the footer would misplace the
	// stream's end.
	idx, footOff := readDayIndexOff(f, maxEventCount)
	eventsEnd := fi.Size()
	if footOff >= 0 {
		eventsEnd = footOff
	}

	fresh := p.fi == nil || !os.SameFile(p.fi, fi) || p.seg != nil || p.start != start || eventsEnd < p.cur.off
	if fresh {
		p.reset()
		p.start = start
		p.cur.off = start
		// A finalized file on a clean slate: trust header and footer the
		// way OpenTrace does, skipping the O(events) decode.
		trust := footOff >= 0 && idx != nil &&
			(count == 0) == (len(idx) == 0) &&
			(len(idx) == 0 || (idx[len(idx)-1].Event < count && idx[len(idx)-1].Offset < footOff))
		if trust {
			lastDay := int32(0)
			if len(idx) > 0 {
				lastDay = idx[len(idx)-1].Day
			}
			return p.trustFinalized(fi, meta, count, eventsEnd, lastDay, idx), nil
		}
	}
	p.fi = fi
	p.headerMeta, p.headerCount = meta, count

	// Decode forward from the frontier over the newly visible bytes.
	var anomaly error
	if eventsEnd > p.cur.off {
		base := p.cur.off
		cr := &countingReader{r: io.NewSectionReader(f, base, eventsEnd-base)}
		br := bufio.NewReader(cr)
		dec := resumeDecoder(br, p.headerMeta, maxEventCount, p.curDay)
		for {
			ev, ok, err := dec.Next()
			if err != nil {
				if errors.Is(err, ErrTruncated) {
					// The stream ran out: either exactly at our frontier
					// (a clean boundary) or inside an event (a torn tail
					// write). Both are normal under a live writer; a
					// finalized stream ending mid-event is not.
					if footOff >= 0 && p.cur.off != eventsEnd {
						anomaly = fmt.Errorf("trace: finalized stream ends mid-event: %w", err)
					}
				} else {
					anomaly = err
				}
				break
			}
			if !ok {
				break
			}
			if !p.observe(ev, base+cr.n-int64(br.Buffered())) {
				// Appended events continue the trusted file's final day:
				// rescan from scratch to re-derive the sealed boundary.
				p.reset()
				return p.Probe()
			}
		}
	}

	finalized := footOff >= 0 && anomaly == nil &&
		p.cur.off == eventsEnd && p.cur.count == p.headerCount
	return p.snapshot(finalized, anomaly), nil
}

// probeSeg is Probe for the segmented container. The sealing rule and
// all tolerance properties are the flat path's; what differs is the unit
// of progress: only *fully-flushed frames* are consumed. A frame whose
// header or payload has not completely hit the disk is a torn tail to
// wait out; a frame that is complete but fails its checksum is an
// anomaly that never advances the frontier. Within each complete frame
// the payload is checksum-verified, decompressed once, and its events
// run through the same day-barrier sealing machine — so a day is sealed
// only when a later-day event has been observed in some fully-flushed
// frame (or the footer finalizes the file).
func (p *TailProbe) probeSeg(f *os.File, fi os.FileInfo) (*TailSnapshot, error) {
	hdr := make([]byte, fixedHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err // header not fully written yet: back off
	}
	meta, count, hdrFinal, err := parseFixedHeader(hdr, segMagic)
	if err != nil {
		return nil, err
	}
	// A mid-write header's count slot is poisoned; the probe treats the
	// count as unknown (zero floor) and finds the extent by scanning.
	if !hdrFinal {
		count = 0
	}
	h := &blobHandle{ra: f}

	fresh := p.fi == nil || !os.SameFile(p.fi, fi) || p.seg == nil || fi.Size() < p.seg.frameOff
	if fresh {
		p.reset()
		p.start = 0 // snapshot offsets run in raw-stream coordinates
		p.seg = &segProbe{frameOff: int64(fixedHeaderLen)}
		if hdrFinal {
			// Finalized file on a clean slate: trust header and footer the
			// way OpenTrace does, skipping the O(events) decode.
			if segs, idx, ok := readSegFooter(h, fi.Size()); ok {
				var total uint64
				end := segProbe{frameOff: int64(fixedHeaderLen), segs: segs}
				lastDay := int32(0)
				for _, s := range segs {
					total += s.events
					end.frameOff, end.rawOff, lastDay = s.fileEnd(), s.rawEnd(), s.lastDay
				}
				if total == count {
					*p.seg = end
					return p.trustFinalized(fi, meta, count, end.rawOff, lastDay, idx), nil
				}
			}
		}
	}
	p.fi = fi
	p.headerMeta, p.headerCount = meta, count

	var anomaly error
	sp := p.seg
scan:
	for {
		if fi.Size() < sp.frameOff+segFrameHdrLen {
			break // no complete frame header yet: wait
		}
		var fh [segFrameHdrLen]byte
		if err := h.readFull(fh[:], sp.frameOff); err != nil {
			anomaly = err
			break
		}
		if [4]byte(fh[:4]) != segFrameMagic {
			break // the footer (or trailing garbage) starts here
		}
		seg := parseFrameHeader(fh[:], sp.frameOff, sp.rawOff, p.cur.count)
		ordinal := len(sp.segs)
		if !seg.plausible(p.curDay) {
			anomaly = fmt.Errorf("%w: segment %d at byte %d: implausible frame header", ErrSegmentCorrupt, ordinal, sp.frameOff)
			break
		}
		if fi.Size() < seg.fileEnd() {
			break // torn frame write: wait for the rest
		}
		payload := make([]byte, seg.compLen)
		if err := h.readFull(payload, sp.frameOff+segFrameHdrLen); err != nil {
			anomaly = err
			break
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[28:]) {
			anomaly = fmt.Errorf("%w: segment %d at byte %d: checksum mismatch", ErrSegmentCorrupt, ordinal, sp.frameOff)
			break
		}
		// Decode the whole frame before applying any of it, so a frame
		// that fails mid-decode leaves the frontier exactly where it was.
		raw, ierr := inflateFrame(payload, seg)
		if ierr != nil {
			anomaly = fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, ordinal, sp.frameOff, ierr)
			break
		}
		cr := &countingReader{r: bytes.NewReader(raw)}
		br := bufio.NewReader(cr)
		dec := resumeDecoder(br, p.headerMeta, seg.events, p.curDay)
		evs := make([]Event, 0, seg.events)
		offs := make([]int64, 0, seg.events)
		for {
			ev, ok, derr := dec.Next()
			if derr != nil {
				anomaly = fmt.Errorf("%w: segment %d at byte %d: %v", ErrSegmentCorrupt, ordinal, sp.frameOff, derr)
				break scan
			}
			if !ok {
				break
			}
			evs = append(evs, ev)
			offs = append(offs, sp.rawOff+cr.n-int64(br.Buffered()))
		}
		if uint64(len(evs)) != seg.events || offs[len(offs)-1] != sp.rawOff+seg.rawLen {
			anomaly = fmt.Errorf("%w: segment %d at byte %d: payload contradicts frame header", ErrSegmentCorrupt, ordinal, sp.frameOff)
			break
		}
		for i, ev := range evs {
			if !p.observe(ev, offs[i]) {
				// Events continued past a trusted-finalized load (the file
				// was rebuilt in place): rescan from scratch.
				p.reset()
				return p.Probe()
			}
		}
		sp.segs = append(sp.segs, seg)
		sp.frameOff = seg.fileEnd()
		sp.rawOff += seg.rawLen
	}

	finalized := false
	if anomaly == nil && hdrFinal && p.cur.count == count {
		_, _, finalized = readSegFooter(h, fi.Size())
	}
	return p.snapshot(finalized, anomaly), nil
}

// trustFinalized loads a finalized file on a clean slate from its header
// and footer alone, skipping the O(events) decode: the frontier is the
// stream's end, raw offset end, on the final day lastDay. The sealed
// state is deliberately left unset (sealedValid=false) — if the file is
// later reopened for append, the first new day barrier re-derives it,
// cheaper than a full decode.
func (p *TailProbe) trustFinalized(fi os.FileInfo, meta Meta, count uint64, end int64, lastDay int32, idx []DayIndexEntry) *TailSnapshot {
	p.fi = fi
	p.headerMeta, p.headerCount = meta, count
	p.cur = tailPos{off: end, count: count}
	p.curMeta = meta
	p.curDay = lastDay
	p.sealedValid = false
	p.index = idx
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
	if p.seg != nil {
		s.segs = p.seg.segs[:len(p.seg.segs):len(p.seg.segs)]
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

// parseStreamHeader reads the trace header (either layout) and returns
// its meta, declared count, and the byte offset of the first event.
func parseStreamHeader(f *os.File) (Meta, uint64, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Meta{}, 0, 0, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	dec, err := NewDecoder(br)
	if err != nil {
		return Meta{}, 0, 0, err
	}
	return dec.Meta(), dec.Events(), cr.n - int64(br.Buffered()), nil
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
