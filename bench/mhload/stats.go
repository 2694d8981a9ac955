package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks; NaN when sorted is empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedFloats returns a sorted copy of xs.
func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 percentile of xs.
func median(xs []float64) float64 { return percentile(sortedFloats(xs), 0.5) }

// millis converts durations to sorted float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the benchmark driver uses
// to judge run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedFloats(xs)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// ratio is num/den, or 0 when nothing was observed.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
