// Package stats provides the descriptive statistics, density estimation and
// small regression models used by the experiment runners: percentiles and
// CDFs for latency analysis (Figure 5), Gaussian-kernel density estimation
// for the response-length-difference distributions (Figure 4), and linear
// regression and bilinear profile tables for the throughput and length
// predictors (Table 6).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the samples.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.sorted))
}

// Quantile returns the smallest sample x with P(X <= x) >= q, for q in (0,1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// KDE is a Gaussian kernel density estimator, used to draw the smoothed
// response-length-difference curves in Figure 4.
type KDE struct {
	samples   []float64
	bandwidth float64
}

// NewKDE builds a KDE with Silverman's rule-of-thumb bandwidth when bw <= 0.
func NewKDE(xs []float64, bw float64) *KDE {
	s := append([]float64(nil), xs...)
	if bw <= 0 {
		sd := StdDev(s)
		if sd == 0 {
			sd = 1
		}
		bw = 1.06 * sd * math.Pow(float64(max(len(s), 1)), -0.2)
	}
	return &KDE{samples: s, bandwidth: bw}
}

// At evaluates the estimated density at x.
func (k *KDE) At(x float64) float64 {
	if len(k.samples) == 0 {
		return 0
	}
	const invSqrt2Pi = 0.3989422804014327
	sum := 0.0
	for _, s := range k.samples {
		z := (x - s) / k.bandwidth
		sum += invSqrt2Pi * math.Exp(-0.5*z*z)
	}
	return sum / (float64(len(k.samples)) * k.bandwidth)
}

// Evaluate returns densities at n evenly spaced points across [lo, hi].
func (k *KDE) Evaluate(lo, hi float64, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		xs[i] = x
		ys[i] = k.At(x)
	}
	return xs, ys
}
