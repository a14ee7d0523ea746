// Package stats provides the statistical machinery of the reproduction:
// the paper's sample-size equations (Section II-D, Eq. 2-4), five-number
// summaries for the CTA boxplot figures, distribution distances used to
// compare pruned profiles against the baseline, and deterministic random
// number generation so every experiment is reproducible.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TStat returns the two-sided normal quantile ("t-statistic" in the paper's
// terminology, which uses the large-sample normal approximation) for a given
// confidence level, e.g. 0.95 -> 1.960, 0.998 -> 3.090.
func TStat(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v out of (0,1)", confidence))
	}
	return normQuantile(0.5 + confidence/2)
}

// normQuantile computes the standard normal quantile via the
// Beasley-Springer-Moro rational approximation (abs error < 3e-9),
// sufficient for sample-size planning.
func normQuantile(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// SampleSize evaluates the paper's Eq. 2: the number of fault-injection
// experiments needed to estimate a proportion p over a population of N fault
// sites within error margin e at the confidence encoded by tstat. As N grows
// it tends to Eq. 3, and at p = 0.5 to Eq. 4's worst case (60K runs at 99.8%
// confidence and e = 0.63%, 1062 runs at 95% and e = 3%).
func SampleSize(n int64, e, tstat, p float64) int64 {
	if n <= 0 {
		return 0
	}
	den := 1 + e*e*(float64(n)-1)/(tstat*tstat*p*(1-p))
	return int64(math.Ceil(float64(n) / den))
}

// Boxplot is the five-number summary plus mean used by the paper's CTA
// grouping figures (Figs. 2-4).
type Boxplot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// NewBoxplot summarizes values (which it copies and sorts).
func NewBoxplot(values []float64) Boxplot {
	var b Boxplot
	b.N = len(values)
	if b.N == 0 {
		return b
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	b.Min, b.Max = v[0], v[len(v)-1]
	b.Q1 = quantileSorted(v, 0.25)
	b.Median = quantileSorted(v, 0.5)
	b.Q3 = quantileSorted(v, 0.75)
	var sum float64
	for _, x := range v {
		sum += x
	}
	b.Mean = sum / float64(len(v))
	return b
}

// quantileSorted computes the linear-interpolation quantile of sorted v.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// Distance measures dissimilarity of two boxplots as the maximum absolute
// difference across the five summary points. Grouping thresholds compare
// against this in the same units as the underlying metric.
func (b Boxplot) Distance(o Boxplot) float64 {
	d := math.Abs(b.Min - o.Min)
	d = math.Max(d, math.Abs(b.Q1-o.Q1))
	d = math.Max(d, math.Abs(b.Median-o.Median))
	d = math.Max(d, math.Abs(b.Q3-o.Q3))
	d = math.Max(d, math.Abs(b.Max-o.Max))
	return d
}

// RNG is the reproduction's deterministic random source. Experiments derive
// child RNGs with Split so that adding samples to one stage never perturbs
// another (the paper's two-seed loop-sampling check needs exactly this).
type RNG struct{ r *rand.Rand }

// NewRNG creates a deterministic generator.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Split derives an independent child generator labeled by name.
func (g *RNG) Split(name string) *RNG {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// SampleInts draws k distinct ints uniformly from [0, n) in random order.
// When k >= n it returns all of [0, n) shuffled.
func (g *RNG) SampleInts(n, k int) []int {
	if k >= n {
		return g.Perm(n)
	}
	// Floyd's algorithm: k draws, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Shuffle so order carries no bias.
	g.r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
