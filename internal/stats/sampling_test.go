package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleWithoutReplacement(t *testing.T) {
	rng := NewRand(3)
	got := SampleWithoutReplacement(100, 10, rng)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementEdge(t *testing.T) {
	rng := NewRand(3)
	if got := SampleWithoutReplacement(0, 5, rng); got != nil {
		t.Fatalf("n=0 should give nil, got %v", got)
	}
	got := SampleWithoutReplacement(4, 10, rng)
	if len(got) != 4 {
		t.Fatalf("k>=n should return all: %v", got)
	}
}

func TestSampleWithoutReplacementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(n)
		got := SampleWithoutReplacement(n, k, rng)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoSupport(t *testing.T) {
	rng := NewRand(5)
	for i := 0; i < 1000; i++ {
		x := Pareto(2, 1.5, rng)
		if x < 2 {
			t.Fatalf("Pareto below xm: %v", x)
		}
	}
}

func TestParetoTail(t *testing.T) {
	// P(X > 2*xm) = 0.5^alpha; check empirically for alpha=1.
	rng := NewRand(6)
	n, over := 20000, 0
	for i := 0; i < n; i++ {
		if Pareto(1, 1, rng) > 2 {
			over++
		}
	}
	p := float64(over) / float64(n)
	if math.Abs(p-0.5) > 0.02 {
		t.Fatalf("tail prob = %v, want ~0.5", p)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
}
