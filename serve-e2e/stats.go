package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the value is one or two outliers, not a tail.
const minTail = 10

// tailQuantile returns the quantile (in [0,1]) reported as a run's tail
// latency: target (0.95) when at least minTail of n samples lie beyond it,
// otherwise the highest quantile that still leaves minTail samples beyond.
// It returns false when n is too small to leave minTail samples beyond any
// quantile.
func tailQuantile(n int, target float64) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	// Index k of the sorted samples leaves n-1-k samples beyond it.
	k := int(math.Floor(target * float64(n-1)))
	if n-1-k < minTail {
		k = n - 1 - minTail
	}
	return float64(k) / float64(n-1), true
}

// quantile returns the q-quantile of sorted by the nearest-rank-below rule
// (index floor(q·(n-1))), the rule tailQuantile's indices assume.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(math.Floor(q*float64(len(sorted)-1)+1e-9))]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
