package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle values
// when the count is even) and 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile (0 <= q <= 1) of vs by linear
// interpolation between order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a latency metric may be reported at.
var tailPercentiles = []int{50, 75, 90, 95, 99}

// supportedTail returns the highest percentile of tailPercentiles that
// still has at least ten of n samples beyond it, so the reported tail is
// never set by a handful of outliers. With fewer than twenty samples not
// even the median qualifies and 0 is returned.
func supportedTail(n int) int {
	best := 0
	for _, p := range tailPercentiles {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}

// relSpread is (max-min)/median of vs: the run-to-run spread the -aa table
// compares against a metric's bound. It is 0 for fewer than two values.
func relSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

// typical is the wall-clock of the typical repetition: perRep[k][i] is the
// reading of component i (a campaign, a kernel) in repetition k, and the
// result sums each component's median across repetitions. A burst of host
// noise that hits one component of one repetition then costs that one
// sample, not the whole repetition's.
func typical(perRep [][]float64) float64 {
	var t float64
	for i := range perRep[0] {
		col := make([]float64, len(perRep))
		for k, rep := range perRep {
			col[k] = rep[i]
		}
		t += median(col)
	}
	return t
}
