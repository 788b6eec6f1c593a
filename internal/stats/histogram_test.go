package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogHistogram(t *testing.T) {
	h, err := NewLogHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Add(0) || h.Add(-3) {
		t.Fatal("non-positive samples must be rejected")
	}
	for _, x := range []float64{1, 1.5, 2, 3, 4, 100} {
		if !h.Add(x) {
			t.Fatalf("Add(%v) rejected", x)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	bs := h.Buckets()
	if len(bs) == 0 {
		t.Fatal("no buckets")
	}
	// Buckets sorted by center, counts sum to total.
	var sum int64
	for i, b := range bs {
		sum += b.Count
		if i > 0 && bs[i-1].Center >= b.Center {
			t.Fatal("buckets not sorted")
		}
	}
	if sum != h.Total() {
		t.Fatalf("bucket counts sum %d != total %d", sum, h.Total())
	}
}

func TestLogHistogramBase(t *testing.T) {
	if _, err := NewLogHistogram(1); err == nil {
		t.Fatal("want base error")
	}
}

func TestLogHistogramDensityIntegral(t *testing.T) {
	// Property: sum over buckets of density * width == 1.
	f := func(seed int64) bool {
		rng := NewRand(seed)
		h, _ := NewLogHistogram(1.5)
		n := 100 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			h.Add(math.Exp(rng.NormFloat64() * 2))
		}
		var integral float64
		for _, b := range h.Buckets() {
			// width = hi-lo; recover from center: center = sqrt(lo*hi), hi = lo*base
			lo := b.Center / math.Sqrt(1.5)
			hi := lo * 1.5
			integral += b.Density * (hi - lo)
		}
		return almostEq(integral, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIntCounts(t *testing.T) {
	var c IntCounts
	c.Add(3)
	c.Add(3)
	c.Add(0)
	c.Add(-1) // ignored
	if c.Count(3) != 2 || c.Count(0) != 1 || c.Count(5) != 0 || c.Count(-1) != 0 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Max() != 3 {
		t.Fatalf("max = %d", c.Max())
	}
	vs, ns := c.NonZero()
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 3 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("NonZero = %v %v", vs, ns)
	}
}

func TestIntCountsEmptyMax(t *testing.T) {
	var c IntCounts
	if c.Max() != -1 {
		t.Fatalf("empty Max = %d, want -1", c.Max())
	}
}
