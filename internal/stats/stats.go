// Package stats provides the small numeric substrate used throughout the
// reproduction: descriptive statistics, logarithmic histograms, empirical
// distribution functions, least-squares line and polynomial fits,
// and deterministic sampling helpers.
//
// Everything here is dependency-free and deterministic given a seed, so the
// figure harnesses are reproducible run to run.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by reductions that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (division by n, not n-1).
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks, in the order sort.Float64s gives
// (NaNs first). It selects the one or two ranks it needs from a copy, in
// linear expected time. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	if len(xs) == 1 {
		return xs[0], nil
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	v := slices.Clone(xs)
	a := selectRank(v, lo)
	if lo == hi {
		return a, nil
	}
	// Everything after index lo now orders at or above a, so the next
	// rank is the least of it.
	b := v[hi]
	for _, x := range v[hi+1:] {
		if floatLess(x, b) {
			b = x
		}
	}
	frac := rank - float64(lo)
	return a*(1-frac) + b*frac, nil
}

// floatLess is sort.Float64s' order: NaN before every other value.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectRank reorders v so that v[k] holds the value sort.Float64s would
// put at index k, with nothing after it ordering below it, and returns
// v[k]. It is quickselect on the middle element; past 2·log₂(n) rounds
// it sorts what remains, which bounds the worst case.
func selectRank(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for rounds := 2 * bits.Len(uint(len(v))); lo < hi; rounds-- {
		if rounds == 0 {
			sort.Float64s(v[lo : hi+1])
			break
		}
		pivot := v[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for floatLess(v[i], pivot) {
				i++
			}
			for floatLess(pivot, v[j]) {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo..j] orders at or below the pivot, v[i..hi] at or above it,
		// and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	return v[k]
}
