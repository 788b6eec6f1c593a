package svm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
)

// separable2D builds a linearly separable 2-D set around two centers.
func separable2D(n int, seed int64) (x [][]float64, y []int) {
	rng := stats.NewRand(seed)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x = append(x, []float64{2 + rng.NormFloat64()*0.3, 2 + rng.NormFloat64()*0.3})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-2 + rng.NormFloat64()*0.3, -2 + rng.NormFloat64()*0.3})
			y = append(y, -1)
		}
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	x, y := separable2D(200, 1)
	m, err := Train(x, y, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	met := m.Evaluate(x, y)
	if met.Accuracy < 0.98 {
		t.Fatalf("training accuracy = %v", met.Accuracy)
	}
	if met.PosAccuracy < 0.95 || met.NegAccuracy < 0.95 {
		t.Fatalf("per-class accuracy %v / %v", met.PosAccuracy, met.NegAccuracy)
	}
}

func TestGeneralization(t *testing.T) {
	x, y := separable2D(200, 3)
	m, err := Train(x, y, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := separable2D(100, 5)
	met := m.Evaluate(tx, ty)
	if met.Accuracy < 0.95 {
		t.Fatalf("test accuracy = %v", met.Accuracy)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Train([][]float64{{1}}, []int{2}, Options{}); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{1, -1}, Options{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 1}, Options{}); !errors.Is(err, ErrSingleSide) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Train([][]float64{{}, {}}, []int{1, -1}, Options{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v", err)
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	// Second feature is constant: std=0 path must not divide by zero.
	x := [][]float64{{1, 5}, {2, 5}, {-1, 5}, {-2, 5}}
	y := []int{1, 1, -1, -1}
	m, err := Train(x, y, Options{Seed: 1, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.IsNaN(m.Decision(x[i])) {
			t.Fatal("NaN decision with constant feature")
		}
	}
	if met := m.Evaluate(x, y); met.Accuracy < 1 {
		t.Fatalf("accuracy = %v", met.Accuracy)
	}
}

func TestClassWeightedHelpsImbalance(t *testing.T) {
	// 95:5 imbalance with overlap: unweighted SVM tends to ignore the
	// minority class; weighted must recover decent minority accuracy.
	rng := stats.NewRand(6)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		x = append(x, []float64{rng.NormFloat64() - 0.7})
		y = append(y, -1)
	}
	for i := 0; i < 20; i++ {
		x = append(x, []float64{rng.NormFloat64() + 0.7})
		y = append(y, 1)
	}
	weighted, err := Train(x, y, Options{Seed: 7, ClassWeighted: true, Epochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := Train(x, y, Options{Seed: 7, ClassWeighted: false, Epochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	wm := weighted.Evaluate(x, y)
	um := unweighted.Evaluate(x, y)
	if wm.PosAccuracy <= um.PosAccuracy {
		t.Fatalf("weighting did not improve minority recall: weighted %v vs unweighted %v",
			wm.PosAccuracy, um.PosAccuracy)
	}
	if wm.PosAccuracy < 0.3 {
		t.Fatalf("weighted minority accuracy too low: %v", wm.PosAccuracy)
	}
}

func TestDeterminism(t *testing.T) {
	x, y := separable2D(100, 9)
	a, _ := Train(x, y, Options{Seed: 11})
	b, _ := Train(x, y, Options{Seed: 11})
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("same seed must give same weights")
		}
	}
	if a.B != b.B {
		t.Fatal("same seed must give same bias")
	}
}

func TestPredictSign(t *testing.T) {
	x, y := separable2D(100, 13)
	m, _ := Train(x, y, Options{Seed: 14})
	for i := range x {
		d := m.Decision(x[i])
		p := m.Predict(x[i])
		if (d >= 0 && p != 1) || (d < 0 && p != -1) {
			t.Fatal("Predict inconsistent with Decision")
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := &Model{W: []float64{1}, Mean: []float64{0}, Std: []float64{1}}
	met := m.Evaluate(nil, nil)
	if met.N != 0 || met.Accuracy != 0 {
		t.Fatalf("metrics = %+v", met)
	}
}

func TestNormPositive(t *testing.T) {
	x, y := separable2D(50, 17)
	m, _ := Train(x, y, Options{Seed: 18})
	if m.Norm() <= 0 {
		t.Fatalf("norm = %v", m.Norm())
	}
}
