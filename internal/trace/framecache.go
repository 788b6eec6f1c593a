package trace

import (
	"container/list"
	"sync"
)

// The inflated-frame cache keeps recently decompressed segment frames in
// memory, keyed by (file identity, frame file offset). Re-opening a
// segmented trace — OpenAt resumes, rrserved's refresh re-opens, a
// benchmark's repeated passes — used to re-run flate over the
// same frames every time; with the cache, a frame is inflated once and
// every later cursor over the same bytes serves it from memory, skipping
// the disk fetch, the CRC pass, and the inflate.
//
// File identity is the path plus the container's size and event count,
// so a file that was rewritten or appended in place (the live-ingest
// tail) gets a fresh identity and the old entries simply age out of the
// LRU — there is no explicit invalidation protocol to get wrong.
// Backend- and memory-backed blobs are served uncached: their bytes
// carry no process-stable identity, and a collision would hand a cursor
// another container's (CRC-valid, already inflated) frame.
//
// Cached frames are shared read-only across cursors: every consumer
// wraps them in a bytes.Reader and never writes through the slice.

// frameCacheKey identifies one frame of one immutable container.
type frameCacheKey struct {
	blob string // cache identity of the container (see segBlob identity above)
	off  int64  // frame's byte offset in the container
}

type frameCacheEntry struct {
	key frameCacheKey
	raw []byte
}

// FrameCacheStats is a snapshot of the cache's counters, surfaced by the
// /statz "memory" section and asserted on by the repeat-open benchmarks.
type FrameCacheStats struct {
	// Hits and Misses count frame lookups (misses include lookups while
	// the cache is disabled).
	Hits   uint64
	Misses uint64
	// HitBytes is the total raw (inflated) size of frames served from
	// cache; InflatedBytes the raw size actually decompressed — the
	// figure the cache exists to shrink.
	HitBytes      uint64
	InflatedBytes uint64
	// Bytes/Entries/Capacity describe current residency.
	Bytes    int64
	Entries  int
	Capacity int64
	// Evictions counts entries dropped to make room.
	Evictions uint64
}

type frameCache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	ll      *list.List // *frameCacheEntry; front = most recently used
	m       map[frameCacheKey]*list.Element
	stats   FrameCacheStats
	statsMu sync.Mutex // counters updated outside mu on the disabled path
}

// DefaultFrameCacheBytes is the process-wide inflated-frame budget. At
// the default ~1 MiB raw frame size this holds the hot tail of a
// multi-gigabyte trace; SetFrameCacheCapacity tunes or disables it.
const DefaultFrameCacheBytes = 64 << 20

var segFrameCache = newFrameCache(DefaultFrameCacheBytes)

func newFrameCache(capBytes int64) *frameCache {
	return &frameCache{cap: capBytes, ll: list.New(), m: map[frameCacheKey]*list.Element{}}
}

// SetFrameCacheCapacity resizes the process-wide inflated-frame cache.
// capBytes <= 0 disables caching and drops all entries immediately.
func SetFrameCacheCapacity(capBytes int64) {
	segFrameCache.setCapacity(capBytes)
}

// ReadFrameCacheStats returns a snapshot of the cache counters.
func ReadFrameCacheStats() FrameCacheStats {
	return segFrameCache.snapshot()
}

func (c *frameCache) setCapacity(capBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capBytes
	c.evictLocked()
}

func (c *frameCache) snapshot() FrameCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statsMu.Lock()
	s := c.stats
	c.statsMu.Unlock()
	s.Bytes = c.bytes
	s.Entries = c.ll.Len()
	s.Capacity = c.cap
	return s
}

// countMiss records a lookup that will inflate rawLen bytes for real.
func (c *frameCache) countMiss(rawLen int64) {
	c.statsMu.Lock()
	c.stats.Misses++
	c.stats.InflatedBytes += uint64(rawLen)
	c.statsMu.Unlock()
}

// get returns the cached raw bytes for key, promoting the entry.
func (c *frameCache) get(key frameCacheKey) ([]byte, bool) {
	if key.blob == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*frameCacheEntry)
	c.statsMu.Lock()
	c.stats.Hits++
	c.stats.HitBytes += uint64(len(e.raw))
	c.statsMu.Unlock()
	return e.raw, true
}

// put inserts raw under key, taking ownership of the slice. Frames
// larger than the whole budget are not cached.
func (c *frameCache) put(key frameCacheKey, raw []byte) {
	if key.blob == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 || int64(len(raw)) > c.cap {
		return
	}
	if el, ok := c.m[key]; ok {
		// Another cursor raced the same frame in; keep the resident copy.
		c.ll.MoveToFront(el)
		return
	}
	e := &frameCacheEntry{key: key, raw: raw}
	c.m[key] = c.ll.PushFront(e)
	c.bytes += int64(len(raw))
	c.evictLocked()
}

func (c *frameCache) evictLocked() {
	for c.bytes > c.cap {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*frameCacheEntry)
		c.ll.Remove(el)
		delete(c.m, e.key)
		c.bytes -= int64(len(e.raw))
		c.statsMu.Lock()
		c.stats.Evictions++
		c.statsMu.Unlock()
	}
}
