package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tail percentiles a timing may be reported at.
var tailPercentiles = []float64{50, 75, 90, 95, 99}

// tailPercentile returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it — the rule for which tail a sample of
// that size can support. Small samples fall back to the median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads printed here are the ones the benchmark's contract checks.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
