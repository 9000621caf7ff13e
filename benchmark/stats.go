package main

import (
	"math"
	"sort"
)

// median reports the middle of vals (mean of the two middles for an even
// count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowQuartile reports the value a quarter of the way up the sorted vals
// (the smallest of fewer than five); 0 for an empty slice. vals is not
// modified.
func lowQuartile(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// percentile reports the q-quantile (0..1) of sorted by the nearest-rank
// rule. sorted must be ascending and non-empty.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics §1).
const tailMinBeyond = 10

// highPercentile picks the tail quantile to report for n samples: 0.99
// when at least tailMinBeyond samples lie beyond it, otherwise the highest
// quantile that still has tailMinBeyond samples beyond it. With fewer than
// 2*tailMinBeyond samples the tail is not resolvable and the median is
// returned.
func highPercentile(n int) float64 {
	if n < 2*tailMinBeyond {
		return 0.5
	}
	return math.Min(0.99, float64(n-tailMinBeyond)/float64(n))
}

// splitmix64 is the benchmark's only randomness: a pure function of the
// seed and a stream position, so inputs never depend on call order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rnd derives an independent value from the seed and up to three stream
// coordinates (actor, operation, word).
func rnd(seed uint64, a, b, c int) uint64 {
	return splitmix64(splitmix64(splitmix64(splitmix64(seed)^uint64(a))^uint64(b)) ^ uint64(c))
}
