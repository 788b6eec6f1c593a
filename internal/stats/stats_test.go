package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Sum(xs); got != 10 {
		t.Fatalf("Sum = %v, want 10", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Variance(xs); !almostEq(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance(single) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("want error for p>100")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v", r)
	}
	flat := []float64{5, 5, 5, 5}
	r, _ = Pearson(xs, flat)
	if r != 0 {
		t.Fatalf("zero-variance correlation = %v, want 0", r)
	}
	if _, err := Pearson(xs, xs[:2]); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestPearsonRange(t *testing.T) {
	// Property: |r| <= 1 for random inputs.
	f := func(seedRaw int64) bool {
		rng := NewRand(seedRaw)
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		return err == nil && r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLine(t *testing.T) {
	// y = 3 + 2x exactly.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{3, 5, 7, 9}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Intercept, 3, 1e-10) || !almostEq(fit.Slope, 2, 1e-10) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-10) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("want zero-variance error")
	}
}

func TestPolyFitExact(t *testing.T) {
	// y = 1 - 2x + 0.5x^3
	coef := []float64{1, -2, 0, 0.5}
	var xs, ys []float64
	for x := -3.0; x <= 3; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, PolyEval(coef, x))
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if !almostEq(got[i], coef[i], 1e-8) {
			t.Fatalf("coef[%d] = %v, want %v (all: %v)", i, got[i], coef[i], got)
		}
	}
}

func TestPolyFitDegreeZero(t *testing.T) {
	got, err := PolyFit([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got[0], 6, 1e-12) {
		t.Fatalf("constant fit = %v, want mean 6", got[0])
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("want not-enough-points error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("want negative degree error")
	}
}

func TestPolyFitRecoversRandomPolys(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRand(seed)
		deg := 1 + rng.Intn(4)
		coef := make([]float64, deg+1)
		for i := range coef {
			coef[i] = rng.Float64()*4 - 2
		}
		var xs, ys []float64
		for x := -2.0; x <= 2; x += 0.1 {
			xs = append(xs, x)
			ys = append(ys, PolyEval(coef, x))
		}
		got, err := PolyFit(xs, ys, deg)
		if err != nil {
			return false
		}
		for i := range coef {
			if !almostEq(got[i], coef[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3 x^0.78, the exponent of Fig 3(a).
	var xs, ys []float64
	for d := 1; d <= 1000; d *= 2 {
		xs = append(xs, float64(d))
		ys = append(ys, 3*math.Pow(float64(d), 0.78))
	}
	alpha, c, mse, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alpha, 0.78, 1e-9) || !almostEq(c, 3, 1e-8) {
		t.Fatalf("alpha=%v c=%v", alpha, c)
	}
	if mse > 1e-15 {
		t.Fatalf("mse = %v on exact data", mse)
	}
}

func TestFitPowerLawIgnoresNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4}
	ys := []float64{5, 5, 2, 4, 8}
	alpha, _, _, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alpha, 1, 1e-9) {
		t.Fatalf("alpha = %v, want 1 (y=2x over positives)", alpha)
	}
	if _, _, _, err := FitPowerLaw([]float64{0}, []float64{1}); err == nil {
		t.Fatal("want error with <2 positive points")
	}
}
