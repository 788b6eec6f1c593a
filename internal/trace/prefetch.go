package trace

// Prefetch wraps a Source so that every cursor it opens decodes ahead of
// the consumer on a reader goroutine: events are accumulated into
// day-aligned batches and handed off through a small bounded channel, so
// decode/parse cost (file I/O, varint decoding) overlaps the consumer's
// per-event compute. It is the pipelined data plane of the parallel
// shared pass (DESIGN.md §7).
//
// The hand-off is deterministic: the consumer observes exactly the inner
// cursor's event sequence, and a decode error surfaces at exactly the
// position the inner cursor reported it — after every event that preceded
// it, never earlier. Batches are split at day boundaries (a batch never
// spans two days), so the consumer's day-barrier work naturally runs
// while the reader decodes the next day.
//
// In-memory sources (SliceSource, TraceSource) are returned unchanged:
// their cursors have no decode cost to hide, and the copy through a
// channel would only add overhead.
func Prefetch(src Source) Source {
	switch src.(type) {
	case SliceSource, TraceSource:
		return src
	}
	return &prefetchSource{inner: src}
}

type prefetchSource struct{ inner Source }

// Open implements Source.
func (s *prefetchSource) Open() (Cursor, error) { return s.OpenAt(0) }

// OpenAt implements Source by delegating positioning to the inner source
// (a FileSource seeks through its day index when it has one) and
// prefetching from there.
func (s *prefetchSource) OpenAt(day int32) (Cursor, error) {
	cur, err := s.inner.OpenAt(day)
	if err != nil {
		return nil, err
	}
	return newPrefetchCursor(cur), nil
}

const (
	// prefetchBatchCap bounds a batch's length so a very dense day is
	// handed off in slices instead of one huge allocation.
	prefetchBatchCap = 8192
	// prefetchDepth is how many full batches the hand-off channel buffers.
	// With the batch the reader is filling and the batch the consumer is
	// draining, depth 1 is the classic double buffer: the reader is at
	// most one day (or batch-cap slice) ahead of the consumer.
	prefetchDepth = 1
)

// prefetchBatch is one hand-off unit. err, when non-nil, is the inner
// cursor's error and is delivered to the consumer only after every event
// in the batch — the same position a sequential pass would see it.
type prefetchBatch struct {
	events []Event
	err    error
}

type prefetchCursor struct {
	out  chan prefetchBatch
	free chan []Event  // recycled batch buffers, consumer -> reader
	stop chan struct{} // closed by Close to unblock the reader
	done chan struct{} // closed by the reader after inner.Close

	closeErr error // inner cursor's Close error; written before done closes

	cur prefetchBatch // batch being drained
	i   int
	err error
	eof bool
}

func newPrefetchCursor(inner Cursor) *prefetchCursor {
	c := &prefetchCursor{
		out:  make(chan prefetchBatch, prefetchDepth),
		free: make(chan []Event, prefetchDepth+2),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.read(inner)
	return c
}

// read is the reader goroutine: it drains the inner cursor into
// day-aligned batches and sends them on out. It owns the inner cursor
// and closes it on the way out, recording the Close error for the
// consumer's Close to return.
func (c *prefetchCursor) read(inner Cursor) {
	defer close(c.done)
	defer close(c.out)
	defer func() { c.closeErr = inner.Close() }()
	buf := c.take()
	var day int32
	// send hands one batch to the consumer; false means Close was called
	// and the pass should stop.
	send := func(b prefetchBatch) bool {
		select {
		case c.out <- b:
			return true
		case <-c.stop:
			return false
		}
	}
	for {
		ev, ok, err := inner.Next()
		if err != nil {
			// The error is attached to the events that preceded it, so the
			// consumer sees them first and the error at its exact position.
			send(prefetchBatch{events: buf, err: err})
			return
		}
		if !ok {
			if len(buf) > 0 {
				send(prefetchBatch{events: buf})
			}
			return
		}
		if len(buf) > 0 && (ev.Day != day || len(buf) >= prefetchBatchCap) {
			if !send(prefetchBatch{events: buf}) {
				return
			}
			buf = c.take()
		}
		day = ev.Day
		buf = append(buf, ev)
	}
}

// take reuses a recycled buffer when one is available.
func (c *prefetchCursor) take() []Event {
	select {
	case b := <-c.free:
		return b
	default:
		return make([]Event, 0, prefetchBatchCap)
	}
}

// Next implements Cursor. It drains the current batch, then blocks on the
// reader's next hand-off.
func (c *prefetchCursor) Next() (Event, bool, error) {
	for {
		if c.err != nil {
			return Event{}, false, c.err
		}
		if c.i < len(c.cur.events) {
			ev := c.cur.events[c.i]
			c.i++
			return ev, true, nil
		}
		if c.cur.err != nil {
			c.err = c.cur.err
			return Event{}, false, c.err
		}
		if c.eof {
			return Event{}, false, nil
		}
		if c.cur.events != nil {
			select {
			case c.free <- c.cur.events[:0]:
			default:
			}
			c.cur.events = nil
		}
		b, ok := <-c.out
		if !ok {
			c.eof = true
			continue
		}
		c.cur, c.i = b, 0
	}
}

// Close implements Cursor: it stops the reader (which may be blocked on a
// full hand-off channel), waits for it to close the inner cursor, and
// returns the inner cursor's Close error.
func (c *prefetchCursor) Close() error {
	close(c.stop)
	for range c.out { // unblock and drain until the reader closes out
	}
	<-c.done
	return c.closeErr
}
