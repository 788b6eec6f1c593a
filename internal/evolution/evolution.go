// Package evolution implements the node-level analyses of §3: the time
// dynamics of edge creation (Fig 2) and the strength of preferential
// attachment over time (Fig 3). Both run as streaming stages (Stage,
// AlphaStage) on the engine's shared pass.
package evolution

import (
	"errors"

	"repro/internal/powerlaw"
	"repro/internal/stats"
)

// AgeBucket is one node-age class for the inter-arrival analysis. The
// paper's buckets: month 1, month 2, month 3, months 4–5, months 6–14,
// months 15–26 (Fig 2a).
type AgeBucket struct {
	Name    string
	MinDays int32 // inclusive
	MaxDays int32 // exclusive
}

// DefaultAgeBuckets reproduces the paper's six bucket boundaries.
func DefaultAgeBuckets() []AgeBucket {
	return []AgeBucket{
		{Name: "month 1", MinDays: 0, MaxDays: 30},
		{Name: "month 2", MinDays: 30, MaxDays: 60},
		{Name: "month 3", MinDays: 60, MaxDays: 90},
		{Name: "months 4-5", MinDays: 90, MaxDays: 150},
		{Name: "months 6-14", MinDays: 150, MaxDays: 420},
		{Name: "months 15-26", MinDays: 420, MaxDays: 780},
	}
}

// InterArrivalBucket is the measured inter-arrival PDF for one age bucket.
type InterArrivalBucket struct {
	Bucket  AgeBucket
	PDF     []stats.Bucket // log-binned density over gap days
	Gamma   float64        // fitted PDF power-law exponent (positive)
	Samples int64
}

// Options configures the edge-evolution analyses.
type Options struct {
	// Buckets for the inter-arrival analysis (default: paper's buckets).
	Buckets []AgeBucket
	// MinHistoryDays and MinDegree filter nodes for the normalized-
	// lifetime analysis (paper: 30 days of history, degree ≥ 20).
	MinHistoryDays int32
	MinDegree      int
	// LifetimeBins is the number of normalized-lifetime histogram bins.
	LifetimeBins int
	// MinAgeThresholds are the "new node" cutoffs of Fig 2c, in days.
	MinAgeThresholds []int32
}

// DefaultOptions mirror the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Buckets:          DefaultAgeBuckets(),
		MinHistoryDays:   30,
		MinDegree:        20,
		LifetimeBins:     20,
		MinAgeThresholds: []int32{1, 10, 30},
	}
}

// MinAgeDay is one day of the Fig 2c composition series.
type MinAgeDay struct {
	Day int32
	// Frac[i] is the fraction of the day's edges whose younger endpoint
	// is at most MinAgeThresholds[i] days old.
	Frac  []float64
	Total int64
}

// Result bundles the Fig 2 analyses.
type Result struct {
	InterArrival []InterArrivalBucket
	// LifetimeHist[i] is the fraction of a user's edges created in the
	// i-th slice of her normalized lifetime (Fig 2b).
	LifetimeHist []float64
	// MinAge is the Fig 2c series.
	MinAge []MinAgeDay
	// NodesAnalyzed counts nodes passing the Fig 2b filters.
	NodesAnalyzed int
}

// ErrNoEdges is returned when a trace has no edge events.
var ErrNoEdges = errors.New("evolution: trace has no edges")

// AlphaOptions configures the Fig 3 analysis.
type AlphaOptions struct {
	// Interval is the number of edges between α checkpoints (paper: 5000).
	Interval int64
	// MinEdges is when checkpointing starts (paper: 600K, scaled).
	MinEdges int64
	// Seed drives the random-destination estimator.
	Seed int64
	// PolyDegree is the α(t) polynomial-fit degree (paper: 5).
	PolyDegree int
}

// AlphaResult is the Fig 3 output.
type AlphaResult struct {
	Samples []powerlaw.AlphaSample
	// PEHigher and PERandom are the final p_e(d) curves (Figs 3a–3b).
	PEHigher, PERandom []powerlaw.Point
	// Final fitted exponents and MSEs at the end of the trace.
	FinalAlphaHigher, FinalMSEHigher float64
	FinalAlphaRandom, FinalMSERandom float64
	// PolyHigher/PolyRandom: α(t) polynomial coefficients in the variable
	// edges/PolyScale (Fig 3c); nil when the fit is impossible.
	PolyHigher, PolyRandom []float64
	PolyScale              float64
}
