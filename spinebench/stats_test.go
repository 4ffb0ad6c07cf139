package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestTailReportsItsProvenance pins tailAt: the value at the requested
// percentile whatever the sample count, with the count and how many
// samples lie beyond it.
func TestTailReportsItsProvenance(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{{1, 50, 0}, {20, 50, 10}, {49, 50, 24}, {99, 90, 9}, {100, 90, 10}, {576, 90, 57}, {999, 99, 9}, {1000, 99, 10}, {4500, 99, 45}, {10000, 99.9, 10}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		got := tailAt(xs, c.pct)
		if got.Pct != c.pct || got.Samples != c.n || got.Beyond != c.beyond {
			t.Errorf("n=%d p%v: got p%v over %d with %d beyond, want %d beyond", c.n, c.pct, got.Pct, got.Samples, got.Beyond, c.beyond)
		}
		if want := percentile(xs, c.pct); got.Value != want {
			t.Errorf("n=%d p%v: value %v, want %v", c.n, c.pct, got.Value, want)
		}
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if above < got.Beyond {
			t.Errorf("n=%d p%v: %d samples above the value, reported %d beyond", c.n, c.pct, above, got.Beyond)
		}
	}
}
