package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// With fewer samples than that a "p99" is one or two requests, not a
// distribution, so the helper reports the highest percentile the sample
// count supports instead.
const minBeyond = 10

// tail is a percentile as measured: the value, the percentile it actually
// is (≤ the one asked for) and the sample count.
type tail struct {
	value float64
	pct   float64
	n     int
}

// tailPercentile returns the nearest-rank want-th percentile (0 < want <
// 100) of samples, lowered to the highest percentile that still leaves
// minBeyond samples above it. ok is false when fewer than minBeyond+1
// samples exist. samples is sorted in place.
func tailPercentile(samples []float64, want float64) (t tail, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return tail{n: n}, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	return tail{value: samples[rank-1], pct: 100 * float64(rank) / float64(n), n: n}, true
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples. samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// geoMean returns the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// ratio returns num/den, or 0 when den is 0 (a ratio over no attempts).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
