package stats

import (
	"errors"
	"math"
	"sort"
)

// LogHistogram bins positive samples into logarithmically spaced buckets,
// the standard tool for visualizing power-law distributions (Figs 2a, 4c, 5a).
type LogHistogram struct {
	Base   float64 // bucket boundary growth factor, > 1
	Counts map[int]int64
	total  int64
}

// NewLogHistogram creates a log histogram whose bucket i covers
// [Base^i, Base^(i+1)).
func NewLogHistogram(base float64) (*LogHistogram, error) {
	if base <= 1 {
		return nil, errors.New("stats: log histogram base must be > 1")
	}
	return &LogHistogram{Base: base, Counts: make(map[int]int64)}, nil
}

// RestoreCounts replaces the histogram's contents with the given bucket
// counts (the total is their sum), the inverse of reading Counts — used
// by the checkpoint plane to externalize mid-stream histograms.
func (h *LogHistogram) RestoreCounts(counts map[int]int64) {
	h.Counts = make(map[int]int64, len(counts))
	h.total = 0
	for i, c := range counts {
		h.Counts[i] = c
		h.total += c
	}
}

// Add records one sample; non-positive samples are ignored and reported false.
func (h *LogHistogram) Add(x float64) bool {
	if x <= 0 {
		return false
	}
	i := int(math.Floor(math.Log(x) / math.Log(h.Base)))
	h.Counts[i]++
	h.total++
	return true
}

// Total returns the number of accepted samples.
func (h *LogHistogram) Total() int64 { return h.total }

// Bucket holds one log-histogram bucket in (center, density) form.
type Bucket struct {
	Center  float64 // geometric center of the bucket
	Count   int64
	Density float64 // count / total / bucket width
}

// Buckets returns the non-empty buckets sorted by center.
func (h *LogHistogram) Buckets() []Bucket {
	idx := make([]int, 0, len(h.Counts))
	for i := range h.Counts {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]Bucket, 0, len(idx))
	for _, i := range idx {
		lo := math.Pow(h.Base, float64(i))
		hi := lo * h.Base
		c := h.Counts[i]
		out = append(out, Bucket{
			Center:  math.Sqrt(lo * hi),
			Count:   c,
			Density: float64(c) / float64(h.total) / (hi - lo),
		})
	}
	return out
}

// IntCounts counts occurrences of small non-negative integers (e.g. community
// sizes, degrees). It grows on demand.
type IntCounts struct {
	counts []int64
	total  int64
}

// Add records one integer sample; negative values are ignored.
func (c *IntCounts) Add(v int) {
	if v < 0 {
		return
	}
	for v >= len(c.counts) {
		c.counts = append(c.counts, 0)
	}
	c.counts[v]++
	c.total++
}

// Count returns the number of times v was recorded.
func (c *IntCounts) Count(v int) int64 {
	if v < 0 || v >= len(c.counts) {
		return 0
	}
	return c.counts[v]
}

// Total returns the number of samples recorded.
func (c *IntCounts) Total() int64 { return c.total }

// Max returns the largest value with a nonzero count, or -1 if empty.
func (c *IntCounts) Max() int {
	for v := len(c.counts) - 1; v >= 0; v-- {
		if c.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// NonZero returns (value, count) pairs for all values with nonzero counts,
// in increasing value order.
func (c *IntCounts) NonZero() (values []int, counts []int64) {
	for v, n := range c.counts {
		if n > 0 {
			values = append(values, v)
			counts = append(counts, n)
		}
	}
	return values, counts
}
