package cluster

// ALCA state-occupancy tracking (paper Fig. 3 and §5.3.2).
//
// The ALCA state of a level-k node is the number of its level-(k-1)
// neighbors currently electing it. The paper's recursive-rejection
// analysis depends on two measurable quantities:
//
//   - p_j: the probability that a level-j node is in state 1 (elected
//     by exactly one neighbor) — the "critical" state from which a
//     single migration demotes it;
//   - q_1 computed from the p_j via Eq. (15a), which Eq. (22) requires
//     to stay bounded away from 0 as |V| grows. The paper defers
//     measuring q_1 to future work; StateTracker performs it.

// StateTracker accumulates time-averaged ALCA state statistics across
// hierarchy snapshots.
type StateTracker struct {
	samples int
	// occ[m][s] counts observations of level-m nodes (m >= 1) in state
	// s; occ[m] is nil until level m has been observed.
	occ [][]int
	// deltaHist[d] counts state changes of magnitude d between
	// consecutive snapshots among persistent heads.
	deltaHist []int
	// transitions counts all state changes; unitTransitions those with
	// |Δ| == 1.
	transitions     int
	unitTransitions int
}

// NewStateTracker returns an empty tracker.
func NewStateTracker() *StateTracker { return &StateTracker{} }

// bump increments xs[i], growing xs as needed.
func bump(xs []int, i int) []int {
	if i >= len(xs) {
		xs = append(xs, make([]int, i+1-len(xs))...)
	}
	xs[i]++
	return xs
}

// Observe accumulates the state occupancy of one hierarchy snapshot.
func (t *StateTracker) Observe(h *Hierarchy) {
	t.samples++
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl := h.Levels[k]
		if !lvl.Elected() {
			continue
		}
		m := k + 1 // node level whose states these are
		if m >= len(t.occ) {
			t.occ = append(t.occ, make([][]int, m+1-len(t.occ))...)
		}
		if t.occ[m] == nil {
			t.occ[m] = []int{}
		}
		for _, c := range h.Levels[k+1].Nodes {
			t.occ[m] = bump(t.occ[m], lvl.StateOf(c))
		}
	}
}

// ObserveDiff accumulates the state-transition magnitudes of one diff.
func (t *StateTracker) ObserveDiff(d *Diff) {
	for _, sd := range d.StateDeltas {
		delta := sd.New - sd.Old
		if delta < 0 {
			delta = -delta
		}
		t.deltaHist = bump(t.deltaHist, delta)
		t.transitions++
		if delta == 1 {
			t.unitTransitions++
		}
	}
}

// Samples reports the number of snapshots observed.
func (t *StateTracker) Samples() int { return t.samples }

// Levels returns the node levels for which occupancy data exists,
// ascending.
func (t *StateTracker) Levels() []int {
	var out []int
	for m := 1; m < len(t.occ) && t.occ[m] != nil; m++ {
		out = append(out, m)
	}
	return out
}

// P1 returns the time-averaged probability that a level-m node is in
// ALCA state 1, and the number of observations it is based on.
func (t *StateTracker) P1(m int) (p float64, n int) {
	dist := t.dist(m)
	total := 0
	for _, c := range dist {
		total += c
	}
	if total == 0 || len(dist) < 2 {
		return 0, total
	}
	return float64(dist[1]) / float64(total), total
}

// MeanState returns the time-averaged ALCA state of level-m nodes.
func (t *StateTracker) MeanState(m int) float64 {
	total, sum := 0, 0
	for s, c := range t.dist(m) {
		total += c
		sum += s * c
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// dist returns the state histogram of level-m nodes (nil when level m
// was never observed).
func (t *StateTracker) dist(m int) []int {
	if m < 0 || m >= len(t.occ) {
		return nil
	}
	return t.occ[m]
}

// QDist evaluates Eq. (15a) for a level-k cluster (k >= 2) from the
// measured p_j: q_j for j = 1..k-1, where
//
//	q_j = (1 - p_{k-j-1}) · Π_{i=1..j} p_{k-i}   for j < k-1
//	q_j =                  Π_{i=1..j} p_{k-i}   for j = k-1
//
// Levels with no observations contribute p = 0.
func (t *StateTracker) QDist(k int) []float64 {
	if k < 2 {
		return nil
	}
	p := func(j int) float64 {
		v, _ := t.P1(j)
		return v
	}
	out := make([]float64, k-1)
	prod := 1.0
	for j := 1; j <= k-1; j++ {
		prod *= p(k - j)
		if j < k-1 {
			out[j-1] = (1 - p(k-j-1)) * prod
		} else {
			out[j-1] = prod
		}
	}
	return out
}

// Q1 returns q_1 for a level-k cluster per Eq. (15a): the probability
// that a recursive rejection chain starting below a critical level-k
// node stops after exactly one level. Eq. (22) requires it to remain
// bounded away from zero.
func (t *StateTracker) Q1(k int) float64 {
	q := t.QDist(k)
	if len(q) == 0 {
		return 0
	}
	return q[0]
}

// QSum returns Q = Σ q_j (Eq. 15b).
func (t *StateTracker) QSum(k int) float64 {
	sum := 0.0
	for _, q := range t.QDist(k) {
		sum += q
	}
	return sum
}

// UnitTransitionFraction reports the fraction of observed state
// changes with |Δ| == 1, validating the Fig. 3 adjacent-transition
// premise, plus the total number of transitions observed.
func (t *StateTracker) UnitTransitionFraction() (frac float64, total int) {
	if t.transitions == 0 {
		return 1, 0
	}
	return float64(t.unitTransitions) / float64(t.transitions), t.transitions
}

// DeltaHistogram returns a copy of the |Δstate| histogram, indexed by
// |Δ|.
func (t *StateTracker) DeltaHistogram() []int {
	return append([]int(nil), t.deltaHist...)
}
