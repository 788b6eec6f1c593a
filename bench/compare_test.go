package main

import "testing"

// series returns n values around base, each moved by the matching jitter
// share (cycled), so tests can shape both the centre and the spread.
func series(n int, base float64, jitter ...float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		j := 0.0
		if len(jitter) > 0 {
			j = jitter[i%len(jitter)]
		}
		out[i] = base * (1 + j)
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	tight := []float64{-0.01, 0, 0.01}
	for _, tc := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"clear gain", lower, series(10, 100, tight...), series(10, 80, tight...), improved},
		{"gain for higher-is-better", higher, series(10, 100, tight...), series(10, 120, tight...), improved},
		{"gain needs ten pairs", lower, series(9, 100, tight...), series(9, 80, tight...), unchanged},
		{"same", lower, series(10, 100, tight...), series(10, 100, tight...), unchanged},
		{"small loss within bound", lower, series(10, 100, tight...), series(10, 105, tight...), unchanged},
		{"loss beyond bound", lower, series(10, 100, tight...), series(10, 115, tight...), regressed},
		{"loss beyond bound, higher-is-better", higher, series(10, 100, tight...), series(10, 85, tight...), regressed},
		{"spread wider than bound", lower, series(10, 100, -0.2, 0.2, 0), series(10, 100, -0.2, 0.2, 0), unresolved},
		{"wide spread but every change run better", lower, series(10, 100, 0, 0.2), series(10, 70, -0.05, 0), improved},
		{"wide spread, change wins every pair by less than the IQR", lower, series(10, 100, -0.2, 0.2), series(10, 98, -0.2, 0.2), unresolved},
	} {
		got, _, _ := judge(tc.m, tc.parent, tc.change)
		if got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeCountsWins(t *testing.T) {
	m := metricDef{Better: "lower", Bound: 0.1}
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 9} // two wins, one tie, one loss
	if _, wins, pairs := judge(m, parent, change); wins != 2 || pairs != 4 {
		t.Errorf("wins/pairs = %d/%d, want 2/4", wins, pairs)
	}
}

func TestFailRatio(t *testing.T) {
	runs := []runRecord{
		{Correct: true, Attempted: 10, Failed: 1},
		{Correct: true, Attempted: 10},
		{Correct: false, Attempted: 20, Failed: 0}, // incorrect: every op fails
	}
	if got := failRatio(runs); !near(got, 21.0/40) {
		t.Errorf("failRatio = %v, want %v", got, 21.0/40)
	}
}
