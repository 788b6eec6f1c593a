package community

// SizeBucket labels one community-size class of Figs 7b–7c.
type SizeBucket struct {
	Name     string
	Min, Max int // [Min, Max)
}

// DefaultSizeBuckets reproduces the paper's buckets: [10,100], [100,1k],
// [1k,100k], 100k+.
func DefaultSizeBuckets() []SizeBucket {
	return []SizeBucket{
		{Name: "[10,100]", Min: 10, Max: 100},
		{Name: "[100,1k]", Min: 100, Max: 1000},
		{Name: "[1k,100k]", Min: 1000, Max: 100000},
		{Name: "100k+", Min: 100000, Max: 1 << 30},
	}
}

// UserImpact is the Fig 7 result: user-activity measures separated by
// community membership and community size.
type UserImpact struct {
	// CommunityGaps and NonCommunityGaps pool edge inter-arrival times
	// (days) over users inside/outside tracked communities (Fig 7a).
	CommunityGaps    []float64
	NonCommunityGaps []float64
	// LifetimesBySize maps bucket name -> user lifetimes in days; the
	// "non-community" key holds users outside every tracked community
	// (Fig 7b).
	LifetimesBySize map[string][]float64
	// InRatioBySize maps bucket name -> users' in-degree ratios (Fig 7c).
	InRatioBySize map[string][]float64
}
