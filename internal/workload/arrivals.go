package workload

import "repro/internal/rng"

// Arrivals converts a base event rate into per-interval Poisson counts
// — the open-loop request process the serve runtime drives its
// synthetic client population with.
type Arrivals struct {
	// Rate is the mean event rate per second.
	Rate float64
}

// Count draws the Poisson event count for an interval of dt seconds.
func (a Arrivals) Count(src *rng.Source, dt float64) int {
	mean := a.Rate * dt
	if mean <= 0 {
		return 0
	}
	return src.Poisson(mean)
}
