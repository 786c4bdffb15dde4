// Package stats provides the statistical machinery for the benchmark
// harness: streaming moments (Welford), per-level moment tables, and
// least-squares fitting of candidate scaling laws used to test the
// paper's Θ(log²|V|) claims against power-law alternatives.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates mean and variance in one pass, numerically
// stably. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w Welford) N() int { return w.n }

// Mean returns the sample mean (0 when empty).
func (w Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 when n < 2).
func (w Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval for the mean.
func (w Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Merge combines another accumulator into w (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// PerLevel accumulates a Welford series indexed by small non-negative
// integers (hierarchy levels).
type PerLevel struct {
	levels []Welford
}

// Add accumulates x at level k, growing as needed.
func (p *PerLevel) Add(k int, x float64) {
	for len(p.levels) <= k {
		p.levels = append(p.levels, Welford{})
	}
	p.levels[k].Add(x)
}

// Level returns the accumulator for level k (zero value when absent).
func (p *PerLevel) Level(k int) Welford {
	if k < 0 || k >= len(p.levels) {
		return Welford{}
	}
	return p.levels[k]
}

// Max returns the highest level with data.
func (p *PerLevel) Max() int { return len(p.levels) - 1 }

// String renders means per level for diagnostics.
func (p *PerLevel) String() string {
	s := "["
	for k, w := range p.levels {
		if k > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%.4g", k, w.Mean())
	}
	return s + "]"
}
