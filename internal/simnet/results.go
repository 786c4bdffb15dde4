package simnet

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/par"
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
	hopScratch *topology.BFSScratch
	hopRng     *rng.Source

	// Reusable per-tick measurement scratch.
	prevLogE, nextLogE   map[cluster.LogicalEdge]struct{}
	prevLiveK, nextLiveK map[uint64]bool
	inCluster            map[int]bool
	// Descendant lists: the current sample's, or (hops_par.go) one
	// level's candidates back to back.
	hopDescs []int

	// Parallel hop sampling (see hops_par.go): the run's worker pool,
	// per-worker BFS scratches and membership sets, and the speculative
	// candidate batch. All nil/empty for serial runs.
	hopPool  *par.Pool
	hopScrW  []*topology.BFSScratch
	hopInW   []map[int]bool
	hopCands []hopCand
	hopSnaps []rng.Source
}

// bindPool attaches the run's worker pool to the measurement state and
// sizes the per-worker BFS scratches. A nil pool keeps hop sampling on
// the serial path.
func (st *stateRun) bindPool(p *par.Pool) {
	st.hopPool = p
	if p == nil {
		return
	}
	st.hopScrW = make([]*topology.BFSScratch, p.Workers())
	st.hopInW = make([]map[int]bool, p.Workers())
	for w := range st.hopScrW {
		st.hopScrW[w] = topology.NewBFSScratch(st.cfg.N)
		st.hopInW[w] = map[int]bool{}
	}
}

func newStateRun(cfg Config, region geom.Disc) *stateRun {
	return &stateRun{
		cfg:        cfg,
		region:     region,
		states:     cluster.NewStateTracker(),
		classes:    lm.ClassCounts{},
		hopScratch: topology.NewBFSScratch(cfg.N),
		hopRng:     rng.NewRoot(cfg.Seed).Stream("hop-sampling"),
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
func (st *stateRun) countClusterLinkEvents(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	prevT, nextT *lm.Table,
) {
	maxK := prevH.L()
	if nextH.L() > maxK {
		maxK = nextH.L()
	}
	for k := 1; k <= maxK; k++ {
		pe := cluster.LogicalEdgesInto(st.prevLogE, prevH, prevIDs, k)
		ne := cluster.LogicalEdgesInto(st.nextLogE, nextH, nextIDs, k)
		st.prevLogE, st.nextLogE = pe, ne
		if len(pe) == 0 && len(ne) == 0 {
			continue
		}
		prevLive := prevT.LiveAtInto(k, st.prevLiveK)
		nextLive := nextT.LiveAtInto(k, st.nextLiveK)
		st.prevLiveK, st.nextLiveK = prevLive, nextLive
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
}

// sampleHops measures mean intra-cluster hop counts at each level by
// BFS restricted to the cluster's level-0 descendants.
func (st *stateRun) sampleHops(h *cluster.Hierarchy, g *topology.Graph) {
	if st.hopPool != nil {
		st.sampleHopsPar(h, g)
		return
	}
	for k := 1; k <= h.L(); k++ {
		clusters := h.LevelNodes(k)
		pairs := 0
		for attempts := 0; attempts < st.cfg.HopPairs*4 && pairs < st.cfg.HopPairs; attempts++ {
			c := clusters[st.hopRng.Intn(len(clusters))]
			st.hopDescs = h.DescendantsInto(st.hopDescs[:0], k, c)
			desc := st.hopDescs
			if len(desc) < 2 {
				continue
			}
			a := desc[st.hopRng.Intn(len(desc))]
			b := desc[st.hopRng.Intn(len(desc))]
			if a == b {
				continue
			}
			if st.inCluster == nil {
				st.inCluster = make(map[int]bool, len(desc))
			} else {
				clear(st.inCluster)
			}
			inCluster := st.inCluster
			for _, v := range desc {
				inCluster[v] = true
			}
			hops := st.hopScratch.HopCount(g, a, b, func(v int) bool { return inCluster[v] })
			if hops > 0 {
				st.hopByLevel.Add(k, float64(hops))
				pairs++
			}
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
