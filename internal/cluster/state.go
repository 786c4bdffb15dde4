package cluster

import "sort"

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
	// occ[m][s] counts observations of level-m nodes (m >= 1) in state s.
	occ map[int]map[int]int
	// deltaHist[d] counts state changes of magnitude d between
	// consecutive snapshots among persistent heads.
	deltaHist map[int]int
	// transitions counts all state changes; unitTransitions those with
	// |Δ| == 1.
	transitions     int
	unitTransitions int
}

// NewStateTracker returns an empty tracker.
func NewStateTracker() *StateTracker {
	return &StateTracker{
		occ:       map[int]map[int]int{},
		deltaHist: map[int]int{},
	}
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
		dist := t.occ[m]
		if dist == nil {
			dist = map[int]int{}
			t.occ[m] = dist
		}
		for _, c := range h.Levels[k+1].Nodes {
			dist[lvl.StateOf(c)]++
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
		t.deltaHist[delta]++
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
	for m := 1; ; m++ {
		if _, ok := t.occ[m]; !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// P1 returns the time-averaged probability that a level-m node is in
// ALCA state 1, and the number of observations it is based on.
func (t *StateTracker) P1(m int) (p float64, n int) {
	return t.pState(m, 1)
}

// PState returns the time-averaged probability that a level-m node is
// in the given state.
func (t *StateTracker) PState(m, state int) (p float64, n int) {
	return t.pState(m, state)
}

func (t *StateTracker) pState(m, state int) (float64, int) {
	dist := t.occ[m]
	total := 0
	for _, s := range keysSorted(dist) {
		total += dist[s]
	}
	if total == 0 {
		return 0, 0
	}
	return float64(dist[state]) / float64(total), total
}

// MeanState returns the time-averaged ALCA state of level-m nodes.
func (t *StateTracker) MeanState(m int) float64 {
	dist := t.occ[m]
	total, sum := 0, 0
	for _, s := range keysSorted(dist) {
		total += dist[s]
		sum += s * dist[s]
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
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

// DeltaHistogram returns a copy of the |Δstate| histogram.
func (t *StateTracker) DeltaHistogram() map[int]int {
	out := make(map[int]int, len(t.deltaHist))
	for _, k := range keysSorted(t.deltaHist) {
		out[k] = t.deltaHist[k]
	}
	return out
}

// OccupancyHistogram returns a copy of the state histogram for
// level-m nodes.
func (t *StateTracker) OccupancyHistogram(m int) map[int]int {
	out := make(map[int]int, len(t.occ[m]))
	for _, k := range keysSorted(t.occ[m]) {
		out[k] = t.occ[m][k]
	}
	return out
}

// keysSorted returns the keys of m in ascending order: the only way
// map contents may enter an order-sensitive computation.
func keysSorted[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
