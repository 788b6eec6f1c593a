package stats

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic *rand.Rand for the given seed. All
// randomized code in this repository takes an explicit RNG so experiments
// are reproducible.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). If k >= n it returns the full range in random order.
func SampleWithoutReplacement(n, k int, rng *rand.Rand) []int {
	if n <= 0 {
		return nil
	}
	if k >= n {
		out := rng.Perm(n)
		return out
	}
	// Floyd's algorithm.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Pareto draws from a Pareto(xm, alpha) distribution: P(X > x) = (xm/x)^alpha
// for x >= xm. Used for power-law edge inter-arrival gaps (Fig 2a).
func Pareto(xm, alpha float64, rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
