package trace

import (
	"path/filepath"
	"testing"
)

// resetFrameCache empties the process-wide cache and restores the default
// capacity when the test finishes. Disabling drops every entry, so
// disable-then-enable yields a cold cache at the requested capacity.
func resetFrameCache(t *testing.T, capBytes int64) {
	t.Helper()
	SetFrameCacheCapacity(0)
	SetFrameCacheCapacity(capBytes)
	t.Cleanup(func() {
		SetFrameCacheCapacity(0)
		SetFrameCacheCapacity(DefaultFrameCacheBytes)
	})
}

// TestFrameCacheLRU exercises the cache in isolation: insertion, hit
// promotion, byte-capped eviction in LRU order, the oversized-frame and
// disabled paths, and the racing-put rule.
func TestFrameCacheLRU(t *testing.T) {
	c := newFrameCache(100)
	k := func(i int) frameCacheKey { return frameCacheKey{blob: "b", off: int64(i)} }
	mk := func(n int) []byte { return make([]byte, n) }

	c.put(k(1), mk(40))
	c.put(k(2), mk(40))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("miss on resident entry 1")
	}
	// 1 was promoted, so inserting 3 (40 bytes, total 120 > 100) must
	// evict 2, the least recently used.
	c.put(k(3), mk(40))
	if _, ok := c.get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 should have survived (it was promoted)")
	}
	if _, ok := c.get(k(3)); !ok {
		t.Fatal("entry 3 should be resident")
	}

	// A frame larger than the whole budget is never cached.
	c.put(k(4), mk(200))
	if _, ok := c.get(k(4)); ok {
		t.Fatal("oversized frame should not be cached")
	}

	// A racing put of a resident key keeps the first copy.
	first, _ := c.get(k(1))
	c.put(k(1), mk(40))
	again, _ := c.get(k(1))
	if &first[0] != &again[0] {
		t.Fatal("racing put replaced the resident copy")
	}

	// The empty blob identity (uncacheable containers) is a no-op.
	c.put(frameCacheKey{off: 7}, mk(10))
	if _, ok := c.get(frameCacheKey{off: 7}); ok {
		t.Fatal("empty blob identity must not cache")
	}

	// Disabling drops everything.
	c.setCapacity(0)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("disable should drop all entries")
	}
	c.put(k(5), mk(10))
	if _, ok := c.get(k(5)); ok {
		t.Fatal("disabled cache accepted an entry")
	}

	s := c.snapshot()
	if s.Bytes != 0 || s.Entries != 0 {
		t.Fatalf("disabled cache reports residency: %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatal("evictions counter never moved")
	}
}

// TestSegRepeatOpenServesFromCache is the cache's end-to-end contract: a
// second pass over the same segmented file must decode identical events
// while inflating zero new bytes — every frame comes out of the cache.
func TestSegRepeatOpenServesFromCache(t *testing.T) {
	resetFrameCache(t, DefaultFrameCacheBytes)
	tr := synthTrace(2000)
	path := filepath.Join(t.TempDir(), "cache.rrs")
	encodeSegToFile(t, tr, path, true)

	src, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, src)
	mid := ReadFrameCacheStats()
	if mid.InflatedBytes == 0 {
		t.Fatal("cold pass inflated nothing — test is not exercising frames")
	}

	second := drain(t, src)
	after := ReadFrameCacheStats()
	if d := after.InflatedBytes - mid.InflatedBytes; d != 0 {
		t.Fatalf("warm pass inflated %d bytes, want 0", d)
	}
	if after.Hits <= mid.Hits {
		t.Fatal("warm pass recorded no cache hits")
	}
	if len(first) != len(second) {
		t.Fatalf("pass lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs between cold and warm pass", i)
		}
	}
}

// TestSegRepeatOpenAtInflatesLess pins the acceptance number: repeated
// OpenAt resumes against a warm cache must inflate at least 2x fewer
// bytes than the same resumes with the cache disabled.
func TestSegRepeatOpenAtInflatesLess(t *testing.T) {
	tr := synthTrace(4000)
	path := filepath.Join(t.TempDir(), "openat.rrs")
	encodeSegToFile(t, tr, path, true)
	src, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	days := src.Meta().Days

	passes := func() {
		for rep := 0; rep < 4; rep++ {
			for _, day := range []int32{0, days / 2, days - 1} {
				cur, err := src.OpenAt(day)
				if err != nil {
					t.Fatal(err)
				}
				for {
					_, ok, err := cur.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				cur.Close()
			}
		}
	}

	resetFrameCache(t, DefaultFrameCacheBytes)
	SetFrameCacheCapacity(0) // disabled
	before := ReadFrameCacheStats()
	passes()
	cold := ReadFrameCacheStats().InflatedBytes - before.InflatedBytes

	SetFrameCacheCapacity(DefaultFrameCacheBytes) // enabled, empty
	before = ReadFrameCacheStats()
	passes()
	warm := ReadFrameCacheStats().InflatedBytes - before.InflatedBytes

	if cold == 0 {
		t.Fatal("disabled passes inflated nothing — test is not exercising frames")
	}
	if warm*2 > cold {
		t.Fatalf("frame cache saved too little: %d bytes inflated warm vs %d disabled (want >= 2x reduction)", warm, cold)
	}
}

// TestSegBackendBlobUncached: containers opened from a blob rather than
// a file (here an in-memory one) have no process-stable identity, so
// their frames must bypass the cache rather than risk a collision
// serving another container's frames.
func TestSegBackendBlobUncached(t *testing.T) {
	resetFrameCache(t, DefaultFrameCacheBytes)
	tr := synthTrace(500)
	src, err := openBytes(encodeSegBytes(t, tr, true))
	if err != nil {
		t.Fatal(err)
	}
	before := ReadFrameCacheStats()
	drain(t, src)
	drain(t, src)
	after := ReadFrameCacheStats()
	if after.Hits != before.Hits {
		t.Fatalf("blob container hit the frame cache %d times", after.Hits-before.Hits)
	}
	if after.Entries != before.Entries {
		t.Fatalf("blob container populated the frame cache: %d new entries", after.Entries-before.Entries)
	}
}

// TestTailProbeFrameLoadsCountAsMisses pins how the tail probe shows in
// ReadFrameCacheStats. A probe that decodes frames loads each one once
// through the cursors' loader, uncached because a growing file has no
// stable identity: every load counts as a miss and as inflated bytes,
// and none is stored. A trusted probe of a finalized file loads none.
func TestTailProbeFrameLoadsCountAsMisses(t *testing.T) {
	resetFrameCache(t, DefaultFrameCacheBytes)
	dir := t.TempDir()
	final, footerless := filepath.Join(dir, "final.rrs"), filepath.Join(dir, "footerless.rrs")
	encodeSegToFile(t, synthTrace(257), final, true)
	writeFile(t, footerless, stripFooter(t, final))

	before := ReadFrameCacheStats()
	snap, err := NewTailProbe(footerless).Probe()
	if err != nil {
		t.Fatal(err)
	}
	after := ReadFrameCacheStats()
	var raw uint64
	for _, s := range snap.segs {
		raw += uint64(s.rawLen)
	}
	if len(snap.segs) < 3 {
		t.Fatalf("need >= 3 frames, got %d", len(snap.segs))
	}
	if after.Misses-before.Misses != uint64(len(snap.segs)) || after.InflatedBytes-before.InflatedBytes != raw {
		t.Fatalf("probe of %d frames (%d raw bytes) counted %d misses, %d inflated bytes",
			len(snap.segs), raw, after.Misses-before.Misses, after.InflatedBytes-before.InflatedBytes)
	}
	if after.Hits != before.Hits || after.Entries != before.Entries {
		t.Fatalf("probe used the frame cache: %d hits, %d entries", after.Hits-before.Hits, after.Entries-before.Entries)
	}

	if _, err := NewTailProbe(final).Probe(); err != nil {
		t.Fatal(err)
	}
	if got := ReadFrameCacheStats(); got != after {
		t.Fatalf("trusted probe touched the frame cache: %+v, was %+v", got, after)
	}
}
