package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted samples: the smallest value with at least p% of the
// samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n > 0
// samples. The epsilon keeps p·n/100 from rounding up past an exact
// integer (99.999% of 10^6 is 999990, not 999991).
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond is the number of samples ranked above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentileLadder lists the percentiles the rule chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// highestPercentile applies the reporting rule: the highest percentile
// of the ladder with at least ten samples beyond it, or 0 when even the
// median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the minimum, the nearest-rank 25th, 50th and 75th
// percentiles, and the maximum of xs.
func quartiles(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { return s[rank(len(s), p)-1] }
	return []float64{s[0], at(25), at(50), at(75), s[len(s)-1]}
}

// pXus is the p-th percentile of nanosecond samples, in microseconds.
func pXus(ns []int64, p float64) float64 { return float64(percentile(sortedCopy(ns), p)) / 1e3 }

func ratio(k, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}
