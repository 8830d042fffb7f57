package main

import (
	"math"
	"sort"
	"time"
)

// summary describes the samples of one metric within one run: what a
// results.json reader needs to judge how much to trust the median.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median, range and quartiles of xs. The quartiles
// follow Python's statistics.quantiles(xs, n=4) (exclusive method), the
// rule the acceptance check of this benchmark applies across runs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 2), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Q3 = quantile(s, 1), quantile(s, 3)
	return out
}

// quantile returns the k-th quartile cut point (k = 1..3) of sorted s.
func quantile(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	j := min(max(k*(n+1)/4, 1), n-1)
	delta := k*(n+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the p-th percentile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

// uncertainty is how far the median may be from where more samples would
// put it, as a share of the median: two standard errors of a median,
// 2 × 0.93 × IQR/√n. It is what the samples of one run say by themselves;
// it does not see the host's speed changing between runs.
func (s summary) uncertainty() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return 1.86 * (s.Q3 - s.Q1) / math.Sqrt(float64(s.N)) / math.Abs(s.Median)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ratio returns a/b, or 0 when b is 0, so a layer that did no work reports
// a plain zero instead of a non-finite number JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
