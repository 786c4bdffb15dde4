package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p90 needs at least 100 samples, p99 1000.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values,
// as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, which extrapolates beyond the extremes of small
// samples), so spreads computed here agree with a check of the same
// values in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
// The tolerance keeps q·n from rounding up past an exact integer (0.9·100
// is 90.00000000000001 in floating point).
func rank(q float64, n int64) int64 {
	return max(1, int64(math.Ceil(q*float64(n)-1e-9)))
}

// checkTail refuses a quantile with fewer than minTail samples beyond
// it, which the sample cannot support.
func checkTail(q float64, n int64) error {
	if n-rank(q, n) < minTail {
		return fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, max(0, n-rank(q, n)), n)
	}
	return nil
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) (float64, error) {
	if err := checkTail(q, int64(len(xs))); err != nil {
		return 0, err
	}
	return sorted(xs)[rank(q, int64(len(xs)))-1], nil
}

// histQuantile estimates the q-quantile of h, in seconds, by linear
// interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does. obs.Histogram reports only bucket upper
// bounds, 2^¼ apart, so a bare bucket quantile jumps by 19% when the
// true value crosses a bucket edge. The bucket's first and last ranks
// are found by bisecting Histogram.Quantile over ranks.
func histQuantile(h *obs.Histogram, q float64) (float64, error) {
	n := h.Count()
	if err := checkTail(q, n); err != nil {
		return 0, err
	}
	at := func(r int64) float64 { return h.Quantile((float64(r) - 0.5) / float64(n)) }
	r := rank(q, n)
	upper := at(r)
	// First rank whose bucket bound reaches upper, and last rank whose
	// bound does not exceed it: the ranks sharing r's bucket.
	first := r - int64(sort.Search(int(r-1), func(i int) bool { return at(r-int64(i)-1) < upper }))
	last := r + int64(sort.Search(int(n-r), func(i int) bool { return at(r+int64(i)+1) > upper }))
	lower := upper / math.Pow(2, 0.25)
	frac := (float64(r-first) + 0.5) / float64(last-first+1)
	return lower + (upper-lower)*frac, nil
}
