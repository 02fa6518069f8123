package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method of Python's statistics.quantiles(vs, n=4) — the
// one the driver judges run-to-run spread with — so the spread this
// program prints and the one the driver computes are the same number.
// Fewer than two values have no spread: all three equal the lone value.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, clamped into [1, n−1].
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// iqr is the distance between the first and the third quartile.
func iqr(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	return q3 - q1
}

// percentile returns the p-th percentile (0 < p < 100) by nearest rank.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mbPerS is decimal megabytes per second, the unit every rate here uses.
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
