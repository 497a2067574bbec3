package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. It never interpolates, so every reported latency is one a
// real operation took. An empty input yields 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// medianOf returns the nearest-rank median of xs without reordering it.
func medianOf(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50)
}

// medianDur is medianOf for durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return time.Duration(medianOf(xs))
}

// medianF is the median of float samples (mean of the middle pair for an
// even count); the timed phase uses it on per-slice statistics.
func medianF(xs []float64) float64 {
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

// minF returns the smallest sample (0 for none).
func minF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// ratio returns num/den, or 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
