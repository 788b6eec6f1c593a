package powerlaw

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/stats"
)

// AlphaSample is one checkpoint of the α(t) evolution (Fig 3c): the fitted
// exponent under both destination rules at a given network edge count.
type AlphaSample struct {
	Edges       int64
	Day         int32
	AlphaHigher float64
	AlphaRandom float64
	MSEHigher   float64
	MSERandom   float64
}

// AlphaTracker drives two PEEstimators (one per destination rule) over an
// event stream and records fitted α every Interval edges once the network
// has at least MinEdges edges, mirroring the paper's procedure ("we compute
// p_e(d) once after every 5000 new edges ... starting when the network
// reaches 600K edges", scaled by the caller).
type AlphaTracker struct {
	higher *PEEstimator
	random *PEEstimator

	// Interval is the number of edges between α checkpoints.
	Interval int64
	// MinEdges is the edge count at which checkpointing starts.
	MinEdges int64

	samples []AlphaSample
}

// NewAlphaTracker creates a tracker; rng feeds the random-destination rule.
func NewAlphaTracker(interval, minEdges int64, rng *rand.Rand) *AlphaTracker {
	if interval <= 0 {
		interval = 5000
	}
	return &AlphaTracker{
		higher:   NewPEEstimator(DestHigherDegree, nil),
		random:   NewPEEstimator(DestRandom, rng),
		Interval: interval,
		MinEdges: minEdges,
	}
}

// ObserveNode forwards a node arrival to both estimators.
func (t *AlphaTracker) ObserveNode(u graph.NodeID) {
	t.higher.ObserveNode(u)
	t.random.ObserveNode(u)
}

// ObserveEdge forwards an edge arrival and checkpoints α on schedule.
// day stamps the resulting sample when one is taken.
func (t *AlphaTracker) ObserveEdge(u, v graph.NodeID, day int32) {
	t.higher.ObserveEdge(u, v)
	t.random.ObserveEdge(u, v)
	n := t.higher.Steps()
	if n >= t.MinEdges && n%t.Interval == 0 {
		t.samples = t.snapshot(t.samples, day)
	}
}

// snapshot appends α fitted at the current edge count, stamped day, to
// samples; a fit that fails leaves samples as they were.
func (t *AlphaTracker) snapshot(samples []AlphaSample, day int32) []AlphaSample {
	ah, _, mh, errH := t.higher.Fit()
	ar, _, mr, errR := t.random.Fit()
	if errH != nil || errR != nil {
		return samples
	}
	return append(samples, AlphaSample{
		Edges:       t.higher.Steps(),
		Day:         day,
		AlphaHigher: ah,
		AlphaRandom: ar,
		MSEHigher:   mh,
		MSERandom:   mr,
	})
}

// Finish returns all samples plus a final one if the stream did not end
// exactly on an interval boundary. The final sample goes into the
// returned slice only, so the tracker can keep observing.
func (t *AlphaTracker) Finish(day int32) []AlphaSample {
	out := slices.Clip(t.samples)
	n := t.higher.Steps()
	if n >= t.MinEdges && (len(out) == 0 || out[len(out)-1].Edges != n) {
		out = t.snapshot(out, day)
	}
	return out
}

// Estimator returns the underlying estimator for the given rule, for callers
// that want the raw p_e(d) points (Figs 3a–3b).
func (t *AlphaTracker) Estimator(rule DestRule) *PEEstimator {
	if rule == DestHigherDegree {
		return t.higher
	}
	return t.random
}

// FitPolynomial fits a degree-deg polynomial to α as a function of edge
// count, as the paper does in Fig 3(c) with degree 5. xsScale divides edge
// counts before fitting to keep the Vandermonde system well-conditioned;
// pass e.g. 1e6. The returned coefficients are in the scaled variable.
func FitPolynomial(samples []AlphaSample, rule DestRule, deg int, xsScale float64) ([]float64, error) {
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.Edges) / xsScale
		if rule == DestHigherDegree {
			ys[i] = s.AlphaHigher
		} else {
			ys[i] = s.AlphaRandom
		}
	}
	return stats.PolyFit(xs, ys, deg)
}

// FitBucketPDF fits a power law to a log-binned PDF (Fig 2a): it returns the
// exponent of density ∝ x^(-gamma) as a positive gamma.
func FitBucketPDF(buckets []stats.Bucket) (gamma float64, err error) {
	var xs, ys []float64
	for _, b := range buckets {
		if b.Density > 0 {
			xs = append(xs, b.Center)
			ys = append(ys, b.Density)
		}
	}
	alpha, _, _, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return 0, err
	}
	return -alpha, nil
}
