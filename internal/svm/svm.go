// Package svm implements a linear Support Vector Machine trained with the
// Pegasos stochastic sub-gradient algorithm (Shalev-Shwartz et al.), plus
// the feature standardization and evaluation helpers needed to reproduce
// the paper's community-merge predictor (§4.3, Fig 6b).
//
// The paper applies an off-the-shelf SVM [36] to 12 structural features of
// a community; a linear kernel with standardized inputs is sufficient at
// that dimensionality and keeps the implementation dependency-free.
package svm

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// Options configures training.
type Options struct {
	// Lambda is the L2 regularization strength (default 0.01).
	Lambda float64
	// Epochs is the number of passes over the data (default 20).
	Epochs int
	// Seed drives the example-sampling order.
	Seed int64
	// ClassWeighted scales each example's loss inversely to its class
	// frequency, which keeps the minority class from being ignored on
	// imbalanced data (community merges are rare in any one snapshot).
	ClassWeighted bool
}

// Model is a trained linear SVM: sign(w·standardize(x) + b).
type Model struct {
	W    []float64
	B    float64
	Mean []float64
	Std  []float64
}

// Errors returned by Train.
var (
	ErrNoData     = errors.New("svm: no training data")
	ErrBadLabel   = errors.New("svm: labels must be -1 or +1")
	ErrDimension  = errors.New("svm: inconsistent feature dimensions")
	ErrSingleSide = errors.New("svm: training data contains a single class")
)

// Train fits a linear SVM on rows X with labels y in {-1, +1}.
func Train(x [][]float64, y []int, opt Options) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, ErrNoData
	}
	dim := len(x[0])
	if dim == 0 {
		return nil, ErrDimension
	}
	var pos, neg int
	for i := range x {
		if len(x[i]) != dim {
			return nil, ErrDimension
		}
		switch y[i] {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, ErrBadLabel
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrSingleSide
	}
	if opt.Lambda <= 0 {
		opt.Lambda = 0.01
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 30
	}

	m := &Model{W: make([]float64, dim), Mean: make([]float64, dim), Std: make([]float64, dim)}
	// Standardization parameters.
	for j := 0; j < dim; j++ {
		col := make([]float64, len(x))
		for i := range x {
			col[i] = x[i][j]
		}
		m.Mean[j] = stats.Mean(col)
		m.Std[j] = stats.StdDev(col)
		if m.Std[j] == 0 {
			m.Std[j] = 1
		}
	}
	// Pre-standardized copy.
	xs := make([][]float64, len(x))
	for i := range x {
		row := make([]float64, dim)
		for j := 0; j < dim; j++ {
			row[j] = (x[i][j] - m.Mean[j]) / m.Std[j]
		}
		xs[i] = row
	}

	wPos, wNeg := 1.0, 1.0
	if opt.ClassWeighted {
		// Inverse-frequency weights, capped: on extremely imbalanced data
		// (community merges are <1% of snapshots) an uncapped weight makes
		// the minority class dominate every update and the model
		// degenerates to always-positive.
		const maxWeight = 10.0
		total := float64(pos + neg)
		wPos = math.Min(total/(2*float64(pos)), maxWeight)
		wNeg = math.Min(total/(2*float64(neg)), maxWeight)
	}

	rng := stats.NewRand(opt.Seed)
	t := 0
	n := len(xs)
	// Averaged Pegasos: the returned model is the average of the iterates
	// over the second half of training, which removes most of the SGD
	// jitter on separable data.
	avgW := make([]float64, dim)
	var avgB float64
	var avgCount int
	halfway := opt.Epochs * n / 2
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for k := 0; k < n; k++ {
			t++
			i := rng.Intn(n)
			eta := 1 / (opt.Lambda * float64(t))
			yi := float64(y[i])
			margin := yi * (dot(m.W, xs[i]) + m.B)
			// Regularization shrink.
			shrink := 1 - eta*opt.Lambda
			if shrink < 0 {
				shrink = 0
			}
			for j := range m.W {
				m.W[j] *= shrink
			}
			if margin < 1 {
				cw := wPos
				if y[i] == -1 {
					cw = wNeg
				}
				step := eta * cw * yi
				for j := range m.W {
					m.W[j] += step * xs[i][j]
				}
				m.B += step
			}
			if t > halfway {
				for j := range avgW {
					avgW[j] += m.W[j]
				}
				avgB += m.B
				avgCount++
			}
		}
	}
	if avgCount > 0 {
		for j := range avgW {
			m.W[j] = avgW[j] / float64(avgCount)
		}
		m.B = avgB / float64(avgCount)
	}
	return m, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Decision returns the signed distance proxy w·standardize(x) + b.
func (m *Model) Decision(x []float64) float64 {
	var s float64
	for j := range m.W {
		s += m.W[j] * (x[j] - m.Mean[j]) / m.Std[j]
	}
	return s + m.B
}

// Predict returns +1 or -1 for the input row.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Metrics reports per-class accuracy the way the paper does in Fig 6(b):
// PosAccuracy is "communities predicted to merge / communities that merge",
// NegAccuracy the analogue for the negative class.
type Metrics struct {
	PosAccuracy float64
	NegAccuracy float64
	Accuracy    float64
	N           int
}

// Evaluate scores the model on a labeled set.
func (m *Model) Evaluate(x [][]float64, y []int) Metrics {
	var tp, fn, tn, fp int
	for i := range x {
		pred := m.Predict(x[i])
		switch {
		case y[i] == 1 && pred == 1:
			tp++
		case y[i] == 1 && pred == -1:
			fn++
		case y[i] == -1 && pred == -1:
			tn++
		case y[i] == -1 && pred == 1:
			fp++
		}
	}
	var out Metrics
	out.N = len(x)
	if tp+fn > 0 {
		out.PosAccuracy = float64(tp) / float64(tp+fn)
	}
	if tn+fp > 0 {
		out.NegAccuracy = float64(tn) / float64(tn+fp)
	}
	if out.N > 0 {
		out.Accuracy = float64(tp+tn) / float64(out.N)
	}
	return out
}

// Norm returns the L2 norm of the weight vector (diagnostic).
func (m *Model) Norm() float64 { return math.Sqrt(dot(m.W, m.W)) }
