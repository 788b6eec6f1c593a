// Package osnmerge implements the network-merge analyses of §5: user
// activity after the Xiaonei/5Q merge and duplicate-account estimation
// (Figs 8a–8b), the internal/external/new edge mix (Fig 8c), the per-OSN
// edge-type ratios (Figs 9a–9b), and the shrinking BFS distance between the
// two formerly separate networks (Fig 9c).
package osnmerge

import (
	"errors"

	"repro/internal/trace"
)

// EdgeClass classifies a post-merge edge by its endpoints' origins (§5.1).
type EdgeClass uint8

const (
	// Internal edges connect users within the same pre-merge OSN.
	Internal EdgeClass = iota
	// External edges connect a Xiaonei user to a 5Q user.
	External
	// NewUser edges involve at least one user who joined after the merge.
	NewUser
)

// String names the class.
func (c EdgeClass) String() string {
	switch c {
	case Internal:
		return "internal"
	case External:
		return "external"
	case NewUser:
		return "new"
	default:
		return "unknown"
	}
}

// Classify returns the class of an edge between users with the given
// origins.
func Classify(a, b trace.Origin) EdgeClass {
	if a == trace.OriginNew || b == trace.OriginNew {
		return NewUser
	}
	if a == b {
		return Internal
	}
	return External
}

// Options configures the merge analysis.
type Options struct {
	// ActivityPercentile selects the activity threshold t as this
	// percentile of per-user mean edge inter-arrival times. The paper
	// uses the value such that 99% of users create an edge at least
	// every t days, i.e. the 99th percentile (t=94 on Renren).
	ActivityPercentile float64
	// FallbackThreshold is used when the trace cannot support the
	// percentile computation.
	FallbackThreshold int32
	// DistanceEvery is the cadence, in days, of the inter-OSN distance
	// samples (Fig 9c).
	DistanceEvery int32
	// DistanceSamples is the number of source users sampled per OSN per
	// distance measurement (the paper uses 1000).
	DistanceSamples int
	// RatioWindow smooths the Fig 9a–9b daily ratios over this many days.
	RatioWindow int32
	// Seed drives distance-source sampling.
	Seed int64
}

// DefaultOptions returns the scaled defaults.
func DefaultOptions() Options {
	return Options{
		ActivityPercentile: 99,
		FallbackThreshold:  94,
		DistanceEvery:      5,
		DistanceSamples:    100,
		RatioWindow:        7,
		Seed:               1,
	}
}

// ActiveDay is one day of the Fig 8a/8b curves: the percentage of one
// OSN's pre-merge users considered active — having created an edge of the
// given type within the next t days.
type ActiveDay struct {
	DaysAfter int32
	All       float64
	New       float64
	Internal  float64
	External  float64
}

// DayCounts is one day of the Fig 8c series.
type DayCounts struct {
	Day      int32 // days after the merge
	Internal int64
	External int64
	NewUsers int64
}

// RatioDay is one day of the Fig 9a–9b series.
type RatioDay struct {
	Day        int32 // days after the merge
	IntOverExt float64
	NewOverExt float64
	HasIntExt  bool // false when the window had no external edges
	HasNewExt  bool
}

// DistancePoint is one sample of the Fig 9c series: average hops from a
// random user of one OSN to the nearest user of the other, ignoring
// post-merge users and their edges.
type DistancePoint struct {
	DaysAfter      int32
	XiaoneiTo5Q    float64
	FiveQToXiaonei float64
}

// Result bundles the §5 analyses.
type Result struct {
	MergeDay          int32
	ActivityThreshold int32
	XiaoneiUsers      int
	FiveQUsers        int
	// InactiveAtMerge are the fractions of each OSN's users with no
	// activity in the first threshold window — the duplicate-account
	// estimate of §5.2.
	InactiveAtMergeXiaonei float64
	InactiveAtMergeFiveQ   float64

	ActiveXiaonei []ActiveDay
	ActiveFiveQ   []ActiveDay
	EdgesPerDay   []DayCounts
	RatiosXiaonei []RatioDay
	RatiosFiveQ   []RatioDay
	RatiosBoth    []RatioDay
	Distances     []DistancePoint
}

// Errors.
var (
	ErrNoMerge = errors.New("osnmerge: trace has no merge day")
	ErrTooFew  = errors.New("osnmerge: no post-merge observation window")
)
