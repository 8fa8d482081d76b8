package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile needs beyond
// it: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// percentile returns the q-th quantile (0 < q < 1) of xs by the
// nearest-rank rule. It refuses to report a percentile with fewer than
// minTail samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (1 - q); beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, want >= %d", q*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median is the middle value of xs (the mean of the middle two for an
// even count), for summaries over a handful of repetitions where no
// tail rule applies.
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

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows splits samples, in the order they completed, into as many
// consecutive windows of at least size samples as they fill (at least
// one). Metrics are taken per window and reported as the median over the
// windows, so a burst of interference from outside the process moves
// one window's value rather than the run's.
func windows[T any](xs []T, size int) [][]T {
	k := max(1, len(xs)/size)
	out := make([][]T, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k : (i+1)*len(xs)/k]
	}
	return out
}

// windowedPercentile is the median over windows of minJobs samples of
// each window's q-th percentile; every window must satisfy the tail rule
// on its own.
func windowedPercentile(xs []float64, q float64) (float64, error) {
	var per []float64
	for _, w := range windows(xs, minJobs) {
		v, err := percentile(w, q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}
