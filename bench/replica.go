package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/spatial"
	"repro/internal/topology"
)

// replica re-implements the simulator's scan tick from the layers'
// public functions, so that the traced run can time each call into a
// layer without adding spans inside the program. It mirrors the
// default paths: scan link engine, oracle hierarchy maintenance,
// serial updates and Euclidean hop costs. The other paths produce
// byte-identical tables, so the lockstep check holds for them too,
// but the layer times then describe the default paths.
//
// It leaves out what only feeds Results (structure averages, cluster
// link-event counts); that work is what simnet.other_us measures.
type replica struct {
	cfg   simnet.Config
	model mobility.Model
	link  topology.LinkModel
	grid  *spatial.Grid
	pos   []geom.Vec

	mnt        *cluster.OracleMaintainer
	selector   *lm.Selector
	accountant *lm.Accountant
	totals     lm.Totals

	// Live snapshot (tick t-1) and the retired t-2 storage reused by
	// the next build, as in the simulator's double buffer.
	graph      *topology.Graph
	hier       *cluster.Hierarchy
	idents     *cluster.Identities
	table      *lm.Table
	spareGraph *topology.Graph
	retiredH   *cluster.Hierarchy
	retiredIDs *cluster.Identities
	spareTable *lm.Table

	diff        *cluster.Diff
	diffScratch cluster.DiffScratch
	linkScratch topology.DiffScratch
	giantScr    topology.ComponentScratch
	updScratch  lm.UpdateScratch
	updParScr   lm.UpdateParScratch
	buildScr    topology.BuildScratch

	alive      []bool
	reviveAt   []float64
	churnSrc   *rng.Source
	aliveNodes []int

	work workCounts
}

// workCounts sums the work units of the ticks a replica ran.
type workCounts struct {
	ticks, transfers, rows, levels, edges, linkEvents int
}

func (c *workCounts) add(o workCounts) {
	c.ticks += o.ticks
	c.transfers += o.transfers
	c.rows += o.rows
	c.levels += o.levels
	c.edges += o.edges
	c.linkEvents += o.linkEvents
}

// newReplica builds the initial snapshot for a defaulted config (as
// returned by Stepper.Config), drawing from the same named rng streams
// as the simulator.
func newReplica(cfg simnet.Config) (*replica, error) {
	root := rng.NewRoot(cfg.Seed)
	region := cfg.Region()
	r := &replica{cfg: cfg, churnSrc: root.Stream("churn")}

	src := root.Stream("mobility")
	switch cfg.Mobility {
	case simnet.MobilityWaypoint:
		r.model = mobility.NewWaypoint(region, cfg.Mu, src)
	case simnet.MobilityGaussMarkov:
		r.model = mobility.NewGaussMarkov(region, cfg.Mu, 0.75, 1, src)
	default:
		return nil, fmt.Errorf("replica: mobility %q not mirrored", cfg.Mobility)
	}
	switch cfg.Link {
	case simnet.LinkUnitDisk:
		r.link = topology.NewUnitDisk(cfg.RTX)
	case simnet.LinkLogShadow:
		r.link = topology.NewLogShadow(cfg.RTX, cfg.PathLossExp, cfg.ShadowSigma, cfg.LinkMargin,
			root.Stream("linkshadow").Uint64())
	default:
		return nil, fmt.Errorf("replica: link model %q not mirrored", cfg.Link)
	}

	r.pos = r.model.Init(cfg.N)
	r.grid = spatial.NewGridForDisc(region, cfg.RTX, cfg.N)
	nodes := make([]int, cfg.N)
	for i, p := range r.pos {
		r.grid.Insert(i, p)
		nodes[i] = i
	}
	ccfg := cluster.Config{MaxLevels: cfg.MaxLevels, Elector: cfg.Elector}
	if cfg.TopArity > 0 {
		ccfg.ForceTopAt = cfg.TopArity
	}
	tracker := cluster.NewIdentityTracker()
	tracker.Passthrough = cfg.NaiveNaming
	r.mnt = cluster.NewOracleMaintainer(ccfg, tracker)
	r.selector = lm.NewSelector(cfg.Hash)
	r.graph = r.link.BuildInto(nil, cfg.N, r.pos, r.grid, nil, nil)
	r.hier, r.idents = r.mnt.Maintain(&cluster.MaintainInput{
		G0: r.graph, Nodes: topology.GiantComponent(r.graph, nodes), Now: 0,
	})
	r.table = r.selector.BuildTable(r.hier, r.idents)
	r.accountant = lm.NewAccountant(topology.NewEuclideanHops(r.pos, cfg.RTX, cfg.Detour))

	r.alive = make([]bool, cfg.N)
	for i := range r.alive {
		r.alive[i] = true
	}
	r.reviveAt = make([]float64, cfg.N)
	r.aliveNodes = make([]int, 0, cfg.N)
	return r, nil
}

// step advances the replica to now, recording one span per layer call
// under parent (tr may be nil).
func (r *replica) step(now float64, tr *tracer, parent int) {
	cfg := &r.cfg

	sp := tr.begin("mobility.advance", parent)
	r.model.AdvanceTo(now, r.pos)
	tr.end(sp)

	sp = tr.begin("spatial.update", parent)
	if cfg.ChurnRate > 0 {
		pDeath := cfg.ChurnRate * cfg.ScanInterval
		for i := range r.alive {
			if r.alive[i] {
				if r.churnSrc.Float64() < pDeath {
					r.alive[i] = false
					r.reviveAt[i] = now + r.churnSrc.Exp(1/cfg.MeanDowntime)
					r.grid.Remove(i)
				}
			} else if now >= r.reviveAt[i] {
				r.alive[i] = true
			}
		}
	}
	r.aliveNodes = r.aliveNodes[:0]
	for i, p := range r.pos {
		if r.alive[i] {
			r.grid.Update(i, p)
			r.aliveNodes = append(r.aliveNodes, i)
		}
	}
	tr.end(sp)

	sp = tr.begin("topology.build", parent)
	newGraph := r.link.BuildInto(r.spareGraph, cfg.N, r.pos, r.grid, nil, &r.buildScr)
	tr.end(sp)
	r.spareGraph = nil

	sp = tr.begin("cluster.maintain", parent)
	r.mnt.Retire(r.retiredH, r.retiredIDs)
	tr.end(sp)
	r.retiredH, r.retiredIDs = nil, nil

	sp = tr.begin("topology.giant", parent)
	giant := r.giantScr.Giant(newGraph, r.aliveNodes)
	tr.end(sp)

	sp = tr.begin("cluster.maintain", parent)
	newHier, newIdents := r.mnt.Maintain(&cluster.MaintainInput{
		G0: newGraph, PrevG0: r.graph, Nodes: giant,
		PrevH: r.hier, PrevIDs: r.idents, Now: now,
	})
	tr.end(sp)

	sp = tr.begin("cluster.diff", parent)
	r.diff = cluster.ComputeDiffInto(r.diff, r.hier, newHier, &r.diffScratch)
	tr.end(sp)

	sp = tr.begin("lm.update", parent)
	newTable := r.selector.UpdateTableIntoPar(
		r.spareTable, &r.updScratch, &r.updParScr,
		r.table, r.hier, r.idents, newHier, newIdents,
		r.mnt.DirtyClusters(), nil)
	tr.end(sp)
	r.spareTable = nil

	if now > cfg.Warmup {
		sp = tr.begin("topology.diff", parent)
		events := r.linkScratch.Diff(r.graph, newGraph)
		tr.end(sp)
		r.work.linkEvents += len(events)

		sp = tr.begin("lm.apply", parent)
		transfers := r.accountant.Apply(r.table, newTable, &r.totals)
		tr.end(sp)
		r.work.transfers += len(transfers)
	}

	r.work.ticks++
	r.work.rows += len(newTable.Owners())
	r.work.levels += newHier.L()
	r.work.edges += newGraph.EdgeCount()

	r.spareGraph = r.graph
	r.retiredH, r.retiredIDs = r.hier, r.idents
	r.spareTable = r.table
	r.graph, r.hier, r.idents, r.table = newGraph, newHier, newIdents, newTable
}

// lockstep advances st and rep one tick at a time until st reaches its
// horizon, and fails at the first tick whose replica table or
// hierarchy depth differs from the simulator's. tr (may be nil)
// receives a "tick" span per tick, with the Stepper's Step and every
// replica layer call as its children.
func lockstep(st *simnet.Stepper, rep *replica, tr *tracer) error {
	for tick := 1; ; tick++ {
		root := tr.begin("tick", -1)
		sp := tr.begin("simnet.step", root)
		ok := st.Step()
		tr.end(sp)
		if !ok {
			tr.drop(root)
			return nil
		}
		rep.step(st.Now(), tr, root)
		tr.end(root)

		if d := lm.DiffTables(rep.table, st.Table()); len(d) > 0 {
			return fmt.Errorf("tick %d (t=%g): replica table differs from the simulator's in %d entries, first %+v",
				tick, st.Now(), len(d), d[0])
		}
		if got, want := rep.hier.L(), st.Hierarchy().L(); got != want {
			return fmt.Errorf("tick %d (t=%g): replica hierarchy has %d levels, simulator %d", tick, st.Now(), got, want)
		}
	}
}
