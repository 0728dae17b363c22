package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, sorting xs in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), sorting
// xs in place. With fewer than two samples both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
