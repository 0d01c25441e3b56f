package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of samples: the smallest sample with at least p% of the samples at
// or below it. It sorts a copy, so callers keep arrival order.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile with the two middle samples averaged
// for an even count, so a two-sample median is their mean.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile. The reporting rule (choosing-metrics
// §1) wants at least ten: p95 needs n >= 200, p99 needs n >= 1000.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// supportedTail is the highest of p99/p95/p50 that still has ten
// samples beyond it for a sample of size n (0 when not even the median
// does). Traced runs use it to label the "reported only" tail.
func supportedTail(n int) float64 {
	for _, p := range []float64{99, 95, 50} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles cut the way Python's
// statistics.quantiles(values, n=4) cuts them (exclusive method) — the
// spread the driver computes over ten runs.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 { // i-th of 4 quantiles, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

// ratio is num/den with 0 for an empty denominator: a counter ratio
// over a run in which the counted event never had a chance to happen.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
