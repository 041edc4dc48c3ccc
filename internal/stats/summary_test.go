package stats

import (
	"math"
	"testing"
)

func TestMeanTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64 // NaN means "expect NaN"
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{7}, 7},
		{"pair", []float64{2, 4}, 3},
		{"tied", []float64{5, 5, 5, 5}, 5},
		{"negatives", []float64{-2, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Mean(tc.xs)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Errorf("Mean(%v) = %v, want NaN", tc.xs, got)
				}
				return
			}
			if got != tc.want {
				t.Errorf("Mean(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestQuantileTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, math.NaN()},
		{"single min", []float64{3}, 0, 3},
		{"single median", []float64{3}, 0.5, 3},
		{"single max", []float64{3}, 1, 3},
		{"tied", []float64{4, 4, 4}, 0.9, 4},
		{"median odd", []float64{3, 1, 2}, 0.5, 2},
		{"median even interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"p25 interpolates", []float64{0, 10}, 0.25, 2.5},
		{"unsorted input", []float64{9, 1, 5}, 1, 9},
		{"q below range clamps", []float64{1, 2}, -0.5, 1},
		{"q above range clamps", []float64{1, 2}, 1.5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Quantile(tc.xs, tc.q)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Errorf("Quantile(%v, %v) = %v, want NaN", tc.xs, tc.q, got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
			}
		})
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}
