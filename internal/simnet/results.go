package simnet

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// stateRun holds the mutable measurement state of one Run.
type stateRun struct {
	cfg    Config
	region geom.Disc

	totals        lm.Totals
	states        *cluster.StateTracker
	classes       lm.ClassCounts
	measuredTicks int

	linkEvents int64 // level-0 link state changes during measurement
	deaths     int64 // churn deaths during measurement (E18)

	// Time-averaged hierarchy structure.
	nodesByLevel stats.PerLevel // |V_k|
	edgesByLevel stats.PerLevel // |E_k|
	levelsAvg    stats.Welford  // L per snapshot
	giantFrac    stats.Welford  // fraction of nodes in giant component
	// Cluster-migration link events per level (g'_k numerator).
	migLinkEvents []int64

	// Sampled intra-cluster hop counts h_k.
	hopByLevel stats.PerLevel
	hops       cluster.HopSampler
	hopBuf     []int // one level's sampled counts
	hopRng     *rng.Source

	// Per-level measurement sets of countClusterLinkEvents: [0] the
	// previous snapshot's, [1] the next one's. A call's next side is
	// the following call's previous side.
	meas [2]measureSide
}

// measureSide holds one snapshot's per-level cluster measurement sets,
// built on demand: levels[k-1] is level k's logical edge set and the
// logical IDs live at level k in the snapshot's LM table. The maps are
// kept across snapshots and refilled, so steady-state ticks reuse
// them; each is first made with room for its level's edge or node
// count, which spares most of its growth steps.
type measureSide struct {
	h      *cluster.Hierarchy
	ids    *cluster.Identities
	t      *lm.Table
	levels []levelSets
}

type levelSets struct {
	edges           map[cluster.LogicalEdge]struct{}
	live            map[uint64]bool
	edgesOK, liveOK bool
}

// holds reports whether the side describes the snapshot (h, ids, t).
func (m *measureSide) holds(h *cluster.Hierarchy, ids *cluster.Identities, t *lm.Table) bool {
	return m.h == h && m.ids == ids && m.t == t
}

// reset points the side at a new snapshot, invalidating every level's
// sets but keeping their storage.
func (m *measureSide) reset(h *cluster.Hierarchy, ids *cluster.Identities, t *lm.Table) {
	m.h, m.ids, m.t = h, ids, t
	for i := range m.levels {
		m.levels[i].edgesOK, m.levels[i].liveOK = false, false
	}
}

// level returns level k's entry (k >= 1), growing the slice on demand.
func (m *measureSide) level(k int) *levelSets {
	for len(m.levels) < k {
		m.levels = append(m.levels, levelSets{})
	}
	return &m.levels[k-1]
}

// edgesAt returns the snapshot's level-k logical edge set; nil (read
// as empty) above the hierarchy's top level.
func (m *measureSide) edgesAt(k int) map[cluster.LogicalEdge]struct{} {
	if k > m.h.L() {
		return nil
	}
	l := m.level(k)
	if !l.edgesOK {
		if l.edges == nil {
			l.edges = make(map[cluster.LogicalEdge]struct{}, m.h.Level(k).Graph.EdgeCount())
		}
		l.edges = cluster.LogicalEdgesInto(l.edges, m.h, m.ids, k)
		l.edgesOK = true
	}
	return l.edges
}

// liveAt returns the logical IDs live at level k in the snapshot's
// table.
func (m *measureSide) liveAt(k int) map[uint64]bool {
	l := m.level(k)
	if !l.liveOK {
		if l.live == nil && k <= m.h.L() {
			l.live = make(map[uint64]bool, len(m.h.Level(k).Nodes))
		}
		l.live = m.t.LiveAtInto(k, l.live)
		l.liveOK = true
	}
	return l.live
}

func newStateRun(cfg Config, region geom.Disc) *stateRun {
	return &stateRun{
		cfg:     cfg,
		region:  region,
		states:  cluster.NewStateTracker(),
		classes: lm.ClassCounts{},
		hopRng:  rng.NewRoot(cfg.Seed).Stream("hop-sampling"),
	}
}

// observe accumulates per-snapshot structural statistics.
func (st *stateRun) observe(h *cluster.Hierarchy) {
	st.levelsAvg.Add(float64(h.L()))
	for k := 0; k <= h.L(); k++ {
		lvl := h.Level(k)
		st.nodesByLevel.Add(k, float64(len(lvl.Nodes)))
		st.edgesByLevel.Add(k, float64(lvl.Graph.EdgeCount()))
	}
	// Level 0 is built over the giant component of the level-0 graph.
	st.giantFrac.Add(float64(len(h.LevelNodes(0))) / float64(st.cfg.N))
}

func (st *stateRun) countLinkEvents(s *topology.DiffScratch, prev, next *topology.Graph) {
	st.linkEvents += int64(len(s.Diff(prev, next)))
}

// countClusterLinkEvents counts level-k cluster link state changes in
// logical ID space, restricted to endpoints that persist across the
// tick — the paper's "cluster migration" link events (i, ii), free of
// relabeling artifacts. This is the g'_k numerator.
//
// Consecutive measured ticks chain: one call's next snapshot is the
// following call's previous one, so the previous side's sets are the
// sets the last call built for its next side, and only the next side
// is built. The previous side is built only when it describes some
// other snapshot (the first measured tick).
func (st *stateRun) countClusterLinkEvents(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	prevT, nextT *lm.Table,
) {
	prev, next := &st.meas[0], &st.meas[1]
	if !prev.holds(prevH, prevIDs, prevT) {
		prev.reset(prevH, prevIDs, prevT)
	}
	next.reset(nextH, nextIDs, nextT)
	maxK := prevH.L()
	if nextH.L() > maxK {
		maxK = nextH.L()
	}
	for k := 1; k <= maxK; k++ {
		pe, ne := prev.edgesAt(k), next.edgesAt(k)
		if len(pe) == 0 && len(ne) == 0 {
			continue
		}
		prevLive, nextLive := prev.liveAt(k), next.liveAt(k)
		persists := func(e cluster.LogicalEdge) bool {
			return prevLive[e.A] && prevLive[e.B] && nextLive[e.A] && nextLive[e.B]
		}
		count := int64(0)
		//lint:ignore maprange commutative integer counting; the result is order-free
		for e := range pe {
			if _, ok := ne[e]; !ok && persists(e) {
				count++
			}
		}
		//lint:ignore maprange commutative integer counting; the result is order-free
		for e := range ne {
			if _, ok := pe[e]; !ok && persists(e) {
				count++
			}
		}
		for len(st.migLinkEvents) <= k {
			st.migLinkEvents = append(st.migLinkEvents, 0)
		}
		st.migLinkEvents[k] += count
	}
	st.meas[0], st.meas[1] = st.meas[1], st.meas[0]
}

// sampleHops measures intra-cluster hop counts at each level by BFS
// restricted to the cluster's level-0 descendants.
func (st *stateRun) sampleHops(h *cluster.Hierarchy, g *topology.Graph) {
	for k := 1; k <= h.L(); k++ {
		st.hopBuf = st.hops.Sample(st.hopBuf[:0], h, g, k, st.hopRng, st.cfg.HopPairs, 4*st.cfg.HopPairs)
		for _, hops := range st.hopBuf {
			st.hopByLevel.Add(k, float64(hops))
		}
	}
}

// Results reports one run's measurements. All rates are per node per
// second over the measurement window unless stated otherwise.
type Results struct {
	Config   Config
	Duration float64 // measured window, s

	// Handoff overhead (the paper's φ and γ), packets/node/s.
	PhiRate   float64
	GammaRate float64
	// Per entry level k (index 0 unused).
	PhiRateByLevel   []float64
	GammaRateByLevel []float64
	// Entry-transfer rates (count, not packets).
	PhiEntryRate   float64
	GammaEntryRate float64

	// Location-registration overhead (reference [17]; not part of the
	// paper's φ/γ handoff): first registrations and owner-driven
	// location updates, packets/node/s and per level.
	RegRate           float64
	RegRateByLevel    []float64
	UpdateRate        float64
	UpdateRateByLevel []float64

	// Node migration frequencies by level (the paper's f_k), events
	// per node per second: Mig counts only pure individual migrations,
	// All counts every level-k membership change.
	FMigByLevel []float64
	FAllByLevel []float64

	// Level-0 link state changes per node per second (paper Eq. 4,
	// counting each link event once per endpoint).
	F0 float64

	// Cluster-migration link events per level-k link per second (the
	// paper's g'_k, Eq. 14).
	GPrimeByLevel []float64

	// Time-averaged hierarchy structure.
	MeanLevels     float64
	NodesByLevel   []float64
	EdgesByLevel   []float64
	AlphaByLevel   []float64 // α_k = |V_{k-1}|/|V_k|
	GiantFraction  float64
	HopMeanByLevel []float64 // sampled h_k (0 where unsampled)

	// DeathRate is the measured churn death rate per node per second
	// (0 without churn).
	DeathRate float64

	// Raw accumulators for deeper analysis.
	Totals  lm.Totals
	States  *cluster.StateTracker
	Classes lm.ClassCounts
	Ticks   int
}

func (st *stateRun) results(cfg Config) (*Results, error) {
	T := cfg.Duration
	n := float64(cfg.N)
	if st.measuredTicks == 0 {
		return nil, fmt.Errorf("simnet: no measured ticks (duration %v, scan %v)", cfg.Duration, cfg.ScanInterval)
	}
	// The measured window is the ticks actually accounted.
	T = float64(st.measuredTicks) * cfg.ScanInterval

	r := &Results{
		Config:   cfg,
		Duration: T,
		Totals:   st.totals,
		States:   st.states,
		Classes:  st.classes,
		Ticks:    st.measuredTicks,
	}
	perNodeSec := func(x float64) float64 { return x / (n * T) }

	r.PhiRate = perNodeSec(st.totals.PhiTotal())
	r.GammaRate = perNodeSec(st.totals.GammaTotal())
	r.RegRate = perNodeSec(st.totals.RegTotal())
	r.UpdateRate = perNodeSec(st.totals.UpdateTotal())
	maxL := st.totals.MaxLevel()
	for k := 0; k <= maxL; k++ {
		r.PhiRateByLevel = append(r.PhiRateByLevel, perNodeSec(st.totals.PhiPackets[k]))
		r.GammaRateByLevel = append(r.GammaRateByLevel, perNodeSec(st.totals.GammaPackets[k]))
		r.RegRateByLevel = append(r.RegRateByLevel, perNodeSec(st.totals.RegPackets[k]))
		r.UpdateRateByLevel = append(r.UpdateRateByLevel, perNodeSec(st.totals.UpdatePackets[k]))
		r.FMigByLevel = append(r.FMigByLevel, perNodeSec(float64(st.totals.MigrationEvents[k])))
		r.FAllByLevel = append(r.FAllByLevel, perNodeSec(float64(st.totals.MembershipEvents[k])))
	}
	var phiE, gammaE int64
	for k := 0; k <= maxL; k++ {
		phiE += st.totals.PhiEntries[k]
		gammaE += st.totals.GammaEntries[k]
	}
	r.PhiEntryRate = perNodeSec(float64(phiE))
	r.GammaEntryRate = perNodeSec(float64(gammaE))

	r.F0 = 2 * float64(st.linkEvents) / (n * T)
	r.DeathRate = float64(st.deaths) / (n * T)

	for k := 0; k <= st.edgesByLevel.Max(); k++ {
		meanEdges := st.edgesByLevel.Level(k).Mean()
		var gp float64
		if k < len(st.migLinkEvents) && meanEdges > 0 {
			gp = float64(st.migLinkEvents[k]) / (meanEdges * T)
		}
		r.GPrimeByLevel = append(r.GPrimeByLevel, gp)
		r.EdgesByLevel = append(r.EdgesByLevel, meanEdges)
		r.NodesByLevel = append(r.NodesByLevel, st.nodesByLevel.Level(k).Mean())
	}
	for k := range r.NodesByLevel {
		//lint:ignore floateq exact-zero guard before division (empty level)
		if k == 0 || r.NodesByLevel[k] == 0 {
			r.AlphaByLevel = append(r.AlphaByLevel, 0)
			continue
		}
		r.AlphaByLevel = append(r.AlphaByLevel, r.NodesByLevel[k-1]/r.NodesByLevel[k])
	}
	r.MeanLevels = st.levelsAvg.Mean()
	r.GiantFraction = st.giantFrac.Mean()
	for k := 0; k <= st.hopByLevel.Max(); k++ {
		r.HopMeanByLevel = append(r.HopMeanByLevel, st.hopByLevel.Level(k).Mean())
	}
	return r, nil
}

// TotalRate returns φ + γ packets per node per second — the paper's
// headline quantity.
func (r *Results) TotalRate() float64 { return r.PhiRate + r.GammaRate }

// Summary renders a human-readable digest.
func (r *Results) Summary() string {
	s := fmt.Sprintf("N=%d T=%.0fs L̄=%.2f giant=%.2f\n", r.Config.N, r.Duration, r.MeanLevels, r.GiantFraction)
	s += fmt.Sprintf("φ=%.4f γ=%.4f total=%.4f pkts/node/s (reg=%.4f); f0=%.3f\n",
		r.PhiRate, r.GammaRate, r.TotalRate(), r.RegRate, r.F0)
	for k := 1; k < len(r.PhiRateByLevel); k++ {
		s += fmt.Sprintf("  k=%d: φ_k=%.5f γ_k=%.5f f_k=%.5f |V_k|=%.1f |E_k|=%.1f\n",
			k, r.PhiRateByLevel[k], r.GammaRateByLevel[k], r.FMigByLevel[k],
			at(r.NodesByLevel, k), at(r.EdgesByLevel, k))
	}
	if len(r.Classes) > 0 {
		levels := make([]int, 0, len(r.Classes))
		for k := range r.Classes {
			levels = append(levels, k)
		}
		sort.Ints(levels)
		for _, k := range levels {
			s += fmt.Sprintf("  reorg classes k=%d:", k)
			for _, c := range lm.EventClasses() {
				if n := r.Classes[k][c]; n > 0 {
					s += fmt.Sprintf(" %s=%d", c, n)
				}
			}
			s += "\n"
		}
	}
	return s
}

func at(xs []float64, i int) float64 {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i]
}
