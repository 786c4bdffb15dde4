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

	// heir[p] is the next head continuing previous head p at the
	// level countClusterLinkEvents is counting (-1 when none).
	heir []int32
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

// countClusterLinkEvents counts level-k cluster link state changes
// between the clusters that persist across the tick — those whose
// logical ID passes from prevH to nextH — the paper's "cluster
// migration" link events (i, ii), free of relabeling artifacts. This
// is the g'_k numerator. nextIDs must have been matched against
// prevIDs: their Prev rows pair each persisting next cluster with its
// previous head, and heir holds the reverse, so the count runs in head
// space over the two level graphs. A level with no edges on either
// side is skipped.
func (st *stateRun) countClusterLinkEvents(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) {
	if !nextIDs.MatchedFrom(prevIDs) {
		panic("simnet: cluster link events need identities matched against the previous ones")
	}
	for k := 1; k <= max(prevH.L(), nextH.L()); k++ {
		pl, nl := prevH.Level(k), nextH.Level(k)
		if edgeCount(pl) == 0 && edgeCount(nl) == 0 {
			continue
		}
		for len(st.migLinkEvents) <= k {
			st.migLinkEvents = append(st.migLinkEvents, 0)
		}
		if pl == nil || nl == nil {
			continue // no cluster persists
		}
		for len(st.heir) < pl.Graph.IDSpace() {
			st.heir = append(st.heir, -1)
		}
		for _, a := range nl.Nodes {
			if p := nextIDs.Prev(k, a); p >= 0 {
				st.heir[p] = int32(a)
			}
		}
		count := int64(0)
		// An edge between persisting clusters changed state when the
		// other snapshot lacks the edge between their counterparts.
		for _, a := range nl.Nodes {
			if pa := nextIDs.Prev(k, a); pa >= 0 {
				for _, b := range nl.Graph.Neighbors(a) {
					if pb := nextIDs.Prev(k, b); b > a && pb >= 0 && !pl.Graph.HasEdge(pa, pb) {
						count++
					}
				}
			}
		}
		for _, a := range pl.Nodes {
			if na := st.heir[a]; na >= 0 {
				for _, b := range pl.Graph.Neighbors(a) {
					if nb := st.heir[b]; b > a && nb >= 0 && !nl.Graph.HasEdge(int(na), int(nb)) {
						count++
					}
				}
			}
		}
		for _, a := range nl.Nodes {
			if p := nextIDs.Prev(k, a); p >= 0 {
				st.heir[p] = -1
			}
		}
		st.migLinkEvents[k] += count
	}
}

// edgeCount returns the level's edge count, 0 for a missing level.
func edgeCount(l *cluster.Level) int {
	if l == nil {
		return 0
	}
	return l.Graph.EdgeCount()
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
