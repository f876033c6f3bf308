package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (Python's statistics.quantiles "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tail returns the q-quantile of xs, or an error when fewer than minTail
// samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	if beyond := int(float64(len(xs))*(1-q) + 1e-9); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, beyond, len(xs))
	}
	return quantile(xs, q), nil
}

// quartiles returns the first quartile, median and third quartile
// exactly as Python's statistics.quantiles(values, n=4) computes them
// (its default "exclusive" method, extrapolating on tiny samples).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// roundSig rounds x to n significant digits. The distributor sums a
// placement's link costs in map order, so the same placement's cost can
// differ in its last bits from one daemon process to the next.
func roundSig(x float64, n int) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', n, 64), 64)
	return v
}
