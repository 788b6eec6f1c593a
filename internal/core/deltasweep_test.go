package core

import (
	"reflect"
	"testing"

	"repro/internal/community"
)

// TestParseDeltaSweep pins the -deltas parser's contract: well-formed
// grids parse in order, and the degenerate inputs a CLI can produce —
// empty or whitespace-only strings, empty segments, non-numbers,
// non-positive or non-finite thresholds, duplicates — are explicit
// errors instead of silent surprises.
func TestParseDeltaSweep(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"0.04", []float64{0.04}},
		{"0.01,0.04,0.16", []float64{0.01, 0.04, 0.16}},
		{" 0.01 ,\t0.04 ", []float64{0.01, 0.04}},
		{"1e-4,0.3", []float64{0.0001, 0.3}},
		// Order is preserved, not sorted: result slots are keyed by it.
		{"0.3,0.01", []float64{0.3, 0.01}},
	}
	for _, tc := range good {
		got, err := ParseDeltaSweep(tc.in)
		if err != nil {
			t.Errorf("ParseDeltaSweep(%q) = error %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDeltaSweep(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	bad := []struct {
		in  string
		why string
	}{
		{"", "empty input"},
		{"   ", "whitespace-only input"},
		{"\t\n", "whitespace-only input"},
		{"0.01,,0.04", "empty segment"},
		{"0.01,", "trailing comma"},
		{"0.01,zero", "non-numeric value"},
		{"0.01,0.04,0.01", "duplicate δ"},
		{"0.04,0.04", "adjacent duplicate δ"},
		{"-0.04", "negative δ"},
		{"0.01,-1e-9", "negative δ in list"},
		{"0", "zero δ (would silently become the default)"},
		{"NaN", "NaN δ"},
		{"+Inf", "infinite δ"},
	}
	for _, tc := range bad {
		if got, err := ParseDeltaSweep(tc.in); err == nil {
			t.Errorf("ParseDeltaSweep(%q) = %v, want error (%s)", tc.in, got, tc.why)
		}
	}
}

// TestParseDistDays pins the -dist-days parser: explicit lists parse in
// order, an empty list follows the trace length, and a value that does
// not fit a day (int32) is an error, never silently wrapped.
func TestParseDistDays(t *testing.T) {
	opt := community.Options{StartDay: 20, SnapshotEvery: 3}
	good := []struct {
		in   string
		days int32
		want []int32
	}{
		{"150, 225,297", 0, []int32{150, 225, 297}},
		{"-1", 0, []int32{-1}},
		{"2147483647", 0, []int32{2147483647}},
		{"", 300, []int32{149, 224, 299}},
		{"", 0, nil},
	}
	for _, tc := range good {
		got, err := ParseDistDays(tc.in, tc.days, opt)
		if err != nil {
			t.Errorf("ParseDistDays(%q, %d) = error %v", tc.in, tc.days, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseDistDays(%q, %d) = %v, want %v", tc.in, tc.days, got, tc.want)
		}
	}
	for _, in := range []string{"4294967316,100", "2147483648", "-2147483649", "100,,200", "day"} {
		if got, err := ParseDistDays(in, 300, opt); err == nil {
			t.Errorf("ParseDistDays(%q) = %v, want error", in, got)
		}
	}
}
