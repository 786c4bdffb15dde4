package simnet

import (
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/lm"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spatial"
	"repro/internal/topology"
)

// phaseTimers is the looper's pre-resolved observability instrument:
// one timer per tick phase plus the tick-level counters and gauges,
// looked up once at setup so the hot loop never touches the registry's
// lock. With Metrics unset every field is nil and each instrumentation
// point costs one nil check (obs types are nil-safe no-ops).
type phaseTimers struct {
	tick      *obs.Timer
	advance   *obs.Timer
	rebuild   *obs.Timer
	cluster   *obs.Timer
	diff      *obs.Timer
	lmUpdate  *obs.Timer
	measure   *obs.Timer
	hops      *obs.Timer
	invariant *obs.Timer
	observer  *obs.Timer

	ticks         *obs.Counter
	measuredTicks *obs.Counter
	transfers     *obs.Counter
	levels        *obs.Gauge

	// LM update work: hash-descent Selects and the candidate keys
	// they hashed.
	selects *obs.Counter
	hashes  *obs.Counter
}

func newPhaseTimers(reg *obs.Registry) phaseTimers {
	if reg == nil {
		return phaseTimers{}
	}
	return phaseTimers{
		tick:      reg.Timer(obs.PhaseTick),
		advance:   reg.Timer(obs.PhaseAdvance),
		rebuild:   reg.Timer(obs.PhaseRebuild),
		cluster:   reg.Timer(obs.PhaseCluster),
		diff:      reg.Timer(obs.PhaseDiff),
		lmUpdate:  reg.Timer(obs.PhaseLMUpdate),
		measure:   reg.Timer(obs.PhaseMeasure),
		hops:      reg.Timer(obs.PhaseHops),
		invariant: reg.Timer(obs.PhaseInvariant),
		observer:  reg.Timer(obs.PhaseObserver),

		ticks:         reg.Counter("sim.ticks"),
		measuredTicks: reg.Counter("sim.measured_ticks"),
		transfers:     reg.Counter("sim.transfers"),
		levels:        reg.Gauge("sim.levels"),

		selects: reg.Counter("lm.selects"),
		hashes:  reg.Counter("lm.hashes"),
	}
}

// looper is the steady-state scan tick with all of its double-buffered
// storage. The reuse contract is two-generational: at tick t, the t-1
// snapshot is still live (it feeds identity matching, diffing, the
// incremental table update and the event counters), so only storage
// retired at the END of tick t-1 — i.e. the t-2 snapshot — is
// recycled. Concretely:
//
//   - spareGraph / spareTable hold the graph and LM table of tick t-2;
//     LinkModel.BuildInto and UpdateTableIntoPar overwrite them in place.
//   - retiredH / retiredIDs hold the t-2 hierarchy and identities;
//     Arena.Recycle harvests them before the t build. The level-0
//     graph inside retiredH is skipped — it is spareGraph, already
//     owned by the graph double-buffer.
//   - diff and the scratches (diffScratch, linkScratch, giantScr,
//     updScratch, and the accountant's internals) are reused every
//     tick; their outputs are dead once the tick's accounting and the
//     Observer callback return (see the ObsEvent lifetime note).
//
// In a post-warmup tick with no churn this leaves only the elector's
// per-level head maps and a few closures as per-tick allocations —
// see BenchmarkTick* in bench_test.go and TestSteadyStateTickAllocs.
type looper struct {
	cfg   Config
	model mobility.Model
	// link is the level-0 link model (Config.Link); every tick
	// rebuilds the graph through it with a grid scan.
	link       topology.LinkModel
	grid       *spatial.Grid
	pos        []geom.Vec
	selector   *lm.Selector
	accountant *lm.Accountant
	bfsHop     *topology.BFSHops
	st         *stateRun

	// Live snapshot (tick t-1).
	graph  *topology.Graph
	hier   *cluster.Hierarchy
	idents *cluster.Identities
	table  *lm.Table

	// Retired storage (tick t-2), recycled into the next build.
	spareGraph *topology.Graph
	retiredH   *cluster.Hierarchy
	retiredIDs *cluster.Identities
	spareTable *lm.Table

	// Hierarchy maintenance: the maintainer owns the snapshot arena
	// and recycles retired snapshots into it; maintIn is the reused
	// Maintain input.
	mnt     *cluster.OracleMaintainer
	maintIn cluster.MaintainInput

	diff        *cluster.Diff
	diffScratch cluster.DiffScratch
	linkScratch topology.DiffScratch
	giantScr    topology.ComponentScratch
	updScratch  lm.UpdateScratch

	// Invariant checker (Config.CheckLevel); nil checks nothing.
	checker *invariant.Checker

	// Observability (Config.Metrics): pre-resolved phase timers and
	// counters; all nil (no-op) when metrics are off.
	tm phaseTimers

	// Churn state (E18): alive flags and pending revivals.
	alive      []bool
	reviveAt   []float64
	churnSrc   *rng.Source
	aliveNodes []int
	tick       int
}

// step advances the simulation by one scan tick. The obs spans wrap
// each phase without influencing it: timers are nil-safe no-ops when
// metrics are off, and never touch simulation state or randomness.
func (lp *looper) step(now float64) {
	cfg := &lp.cfg
	st := lp.st
	spTick := lp.tm.tick.Start()
	lp.tick++
	lp.tm.ticks.Inc()

	spAdvance := lp.tm.advance.Start()
	lp.model.AdvanceTo(now, lp.pos)
	if cfg.ChurnRate > 0 {
		pDeath := cfg.ChurnRate * cfg.ScanInterval
		for i := range lp.alive {
			if lp.alive[i] {
				if lp.churnSrc.Float64() < pDeath {
					lp.alive[i] = false
					lp.reviveAt[i] = now + lp.churnSrc.Exp(1/cfg.MeanDowntime)
					lp.grid.Remove(i)
					if now > cfg.Warmup {
						st.deaths++
					}
				}
			} else if now >= lp.reviveAt[i] {
				lp.alive[i] = true
			}
		}
	}
	lp.aliveNodes = lp.aliveNodes[:0]
	for i, p := range lp.pos {
		if lp.alive[i] {
			lp.grid.Update(i, p)
			lp.aliveNodes = append(lp.aliveNodes, i)
		}
	}
	spAdvance.Stop()

	spRebuild := lp.tm.rebuild.Start()
	newGraph := lp.link.BuildInto(lp.spareGraph, cfg.N, lp.pos, lp.grid, nil, nil)
	lp.spareGraph = nil
	if lp.bfsHop != nil {
		lp.bfsHop.Rebind(newGraph)
	}
	spRebuild.Stop()

	spCluster := lp.tm.cluster.Start()
	lp.mnt.Retire(lp.retiredH, lp.retiredIDs)
	lp.retiredH, lp.retiredIDs = nil, nil
	giant := lp.giantScr.Giant(newGraph, lp.aliveNodes)
	lp.maintIn = cluster.MaintainInput{
		G0: newGraph, Nodes: giant,
		PrevH: lp.hier, PrevIDs: lp.idents, Now: now,
	}
	newHier, newIdents := lp.mnt.Maintain(&lp.maintIn)
	spCluster.Stop()
	lp.tm.levels.Set(float64(newHier.L()))

	spDiff := lp.tm.diff.Start()
	lp.diff = cluster.ComputeDiffInto(lp.diff, lp.hier, newHier, &lp.diffScratch)
	spDiff.Stop()

	spLM := lp.tm.lmUpdate.Start()
	newTable := lp.selector.UpdateTableIntoPar(
		lp.spareTable, &lp.updScratch, nil,
		lp.table, lp.hier, lp.idents, newHier, newIdents,
		nil, nil)
	lp.spareTable = nil
	spLM.Stop()
	selects, hashes := lp.updScratch.Work()
	lp.tm.selects.Add(int64(selects))
	lp.tm.hashes.Add(int64(hashes))

	// Fault injection (Config.Fault): corrupt the fresh table before
	// anything downstream — accounting, observer, and the invariant
	// checker all see the corrupted state, as a real bug would present.
	if cfg.Fault == FaultHandoffMisroute && lp.tick%faultPeriod == 0 {
		newTable.CorruptServer(cfg.Seed + uint64(lp.tick))
	}

	measuring := now > cfg.Warmup
	var transfers []lm.Transfer
	if measuring {
		spMeasure := lp.tm.measure.Start()
		st.measuredTicks++
		lp.tm.measuredTicks.Inc()
		st.countLinkEvents(&lp.linkScratch, lp.graph, newGraph)
		transfers = lp.accountant.Apply(lp.table, newTable, &st.totals)
		lp.tm.transfers.Add(int64(len(transfers)))
		st.observe(newHier)
		if cfg.TrackStates {
			st.states.Observe(newHier)
			st.states.ObserveDiff(lp.diff)
		}
		if cfg.TrackClasses {
			st.classes.Merge(lm.ClassifyReorg(lp.hier, newHier, lp.diff))
		}
		st.countClusterLinkEvents(lp.hier, lp.idents, newHier, newIdents)
		spMeasure.Stop()
		if cfg.SampleHops > 0 && lp.tick%cfg.SampleHops == 0 {
			spHops := lp.tm.hops.Start()
			st.sampleHops(newHier, newGraph)
			spHops.Stop()
		}
	}

	if lp.checker.ShouldCheck(lp.tick) {
		spInv := lp.tm.invariant.Start()
		lp.checker.CheckTick(&invariant.Snapshot{
			Tick: lp.tick, Time: now, Seed: cfg.Seed,
			Prev:     &invariant.State{Hier: lp.hier, IDs: lp.idents, Table: lp.table},
			Next:     &invariant.State{Hier: newHier, IDs: newIdents, Table: newTable},
			Diff:     lp.diff,
			Selector: lp.selector,
		})
		spInv.Stop()
	}

	if cfg.Observer != nil {
		spObs := lp.tm.observer.Start()
		cfg.Observer(ObsEvent{
			Time: now, Hierarchy: newHier, Diff: lp.diff,
			Transfers: transfers, Positions: lp.pos,
		})
		spObs.Stop()
	}

	// Rotate: the t-1 snapshot retires, t becomes the live snapshot.
	lp.spareGraph = lp.graph
	lp.retiredH, lp.retiredIDs = lp.hier, lp.idents
	lp.spareTable = lp.table
	lp.graph, lp.hier, lp.idents, lp.table = newGraph, newHier, newIdents, newTable
	spTick.Stop()
}
