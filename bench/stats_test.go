package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
		{nil, 0, 0, 0},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {80, 80}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7, 3, 9}, 50); got != 7 {
		t.Errorf("percentile of three = %v, want the middle value 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		median float64
		spread float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, (3.75 - 1.25) / 2.5},
		{[]float64{10, 10, 10}, 10, 0},
		{[]float64{2}, 2, 0},
		{nil, 0, 0},
	} {
		if got := median(tc.xs); !near(got, tc.median) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.median)
		}
		if got := spread(tc.xs); !near(got, tc.spread) {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.spread)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
