// Package stat holds the order statistics the benchmark reports: the
// median, quartiles computed as Python's statistics.quantiles computes
// them by default, and a tail percentile that is never thinner than
// MinBeyond samples.
package stat

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie beyond a reported
// percentile: a tail with fewer samples is one or two outliers, not a
// measurement.
const MinBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (0 for no samples).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4). It needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// Spread is the interquartile range of xs as a share of its median.
func Spread(xs []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// Tail returns the highest percentile of xs that has exactly MinBeyond
// samples beyond it, as that percentile (in %) and its value: p99 needs
// 1000 samples, and fewer give a lower percentile.
func Tail(xs []float64) (pct, v float64, err error) {
	n := len(xs)
	if n <= MinBeyond {
		return 0, 0, fmt.Errorf("a tail needs more than %d samples, have %d", MinBeyond, n)
	}
	return 100 * float64(n-MinBeyond) / float64(n), sorted(xs)[n-MinBeyond-1], nil
}
