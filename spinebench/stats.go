package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is a latency tail with its provenance: the value, the percentile it
// was taken at, the number of samples it was taken over and how many of
// them lie beyond it.
type tail struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"pct"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// tailAt returns the pct-th percentile of xs with its provenance. Runs are
// fixed-time, so the sample count moves with the speed of the code under
// test; callers pass a percentile fixed per workload (workloadDef.tailPct,
// chosen once from the measured unit counts) so that two versions are
// always compared at the same percentile.
func tailAt(xs []float64, pct float64) tail {
	return tail{Value: percentile(xs, pct), Pct: pct, Samples: len(xs), Beyond: beyond(len(xs), pct)}
}

// beyond is the number of samples out of n that lie above percentile p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p/100) + 1e-9))
}
