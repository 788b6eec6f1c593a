package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrNotAppendable is returned by OpenAppend for files that cannot be
// extended in place: a segmented file, a header not in the fixed-width
// layout, or a file whose writer never reached Close (the poisoned count
// slot means the event stream's extent is unknown).
var ErrNotAppendable = errors.New("trace: file is not appendable")

// OpenAppend reopens a finalized flat trace file for in-place
// extension and returns an Encoder positioned after its last event: the
// index footer is truncated away, the day index and meta counters are
// restored, and subsequent Write/Close calls behave exactly as if the
// original encoder had never closed — appending days D..D+k to a trace
// and generating the full trace from scratch produce byte-identical
// files.
//
// f must be open read-write. While an append is in progress the header
// on disk still holds the pre-append meta and count, so a concurrent
// reader sees the original (shorter) trace; the TailProbe sees further,
// up to the last sealed day. Close back-patches the header and re-appends
// the footer, finalizing the extended file.
//
// If the footer is missing or damaged the event stream is decoded once
// to rebuild the index and locate its end; any trailing garbage past the
// declared events is truncated.
func OpenAppend(f *os.File) (*Encoder, error) {
	hdr := make([]byte, fixedHeaderLen)
	if _, err := io.ReadAtLeast(f, hdr, fixedHeaderLen); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrNotAppendable, err)
	}
	if [4]byte(hdr[:4]) == segMagic {
		return nil, fmt.Errorf("%w: segmented (compressed) traces cannot be extended in place; regenerate, or write a fresh segmented trace and tail it", ErrNotAppendable)
	}
	meta, count, finalized, err := parseFixedHeader(hdr, magic)
	switch {
	case errors.Is(err, errNotFixedHeader):
		return nil, fmt.Errorf("%w: %v", ErrNotAppendable, err)
	case err != nil:
		return nil, err
	case !finalized:
		return nil, fmt.Errorf("%w: count slot is not finalized (writer crashed before Close?)", ErrNotAppendable)
	}

	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	idx, eventsEnd := readDayIndex(&blobHandle{ra: f}, fi.Size(), int64(fixedHeaderLen))
	prevDay := int32(0)
	if eventsEnd >= 0 && validIndex(idx, meta.Days, count, int64(fixedHeaderLen), eventsEnd) {
		// The index's last entry marks the first event of the final day;
		// every event after it shares that day.
		if len(idx) > 0 {
			prevDay = idx[len(idx)-1].Day
		}
	} else {
		// No (valid) footer: one decode pass rebuilds the index and finds
		// the stream's end.
		idx = nil
		if _, err := f.Seek(int64(fixedHeaderLen), io.SeekStart); err != nil {
			return nil, err
		}
		cr := &countingReader{r: f}
		br := bufio.NewReader(cr)
		dec := resumeDecoder(br, count, 0)
		off := int64(fixedHeaderLen)
		var n uint64
		for {
			ev, ok, err := dec.Next()
			if err != nil {
				return nil, fmt.Errorf("%w: rebuilding index: %v", ErrNotAppendable, err)
			}
			if !ok {
				break
			}
			if n == 0 || ev.Day > prevDay {
				idx = append(idx, DayIndexEntry{Day: ev.Day, Offset: off, Event: n, PrevDay: prevDay})
			}
			off = int64(fixedHeaderLen) + cr.n - int64(br.Buffered())
			prevDay = ev.Day
			n++
		}
		eventsEnd = off
	}

	if eventsEnd < int64(fixedHeaderLen) {
		return nil, fmt.Errorf("%w: event stream ends inside the header", ErrNotAppendable)
	}
	if err := f.Truncate(eventsEnd); err != nil {
		return nil, err
	}
	if _, err := f.Seek(eventsEnd, io.SeekStart); err != nil {
		return nil, err
	}
	return &Encoder{
		ws:       f,
		magic:    magic,
		meta:     meta,
		count:    count,
		prevDay:  prevDay,
		started:  true,
		rawStart: eventsEnd,
		maxRaw:   flatMaxRaw,
		index:    idx,
	}, nil
}
