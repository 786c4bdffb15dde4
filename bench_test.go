package manet

// One benchmark per reproduced artifact (figures Fig.1–Fig.3 and every
// numbered claim; see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark
// executes the corresponding experiment end-to-end at bench scale —
// `go test -bench=E15 -benchtime=1x` regenerates the headline result's
// machinery; `cmd/experiments -run E15` produces the full-scale report.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/spatial"
	"repro/internal/topology"
)

// benchScale keeps per-iteration cost bounded while still exercising
// the full pipeline.
func benchScale() Scale {
	return Scale{Ns: []int{48, 96}, Seeds: 1, Duration: 20, Warmup: 5, BigN: 96}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 1: recursive ALCA hierarchy construction.
func BenchmarkE1_HierarchyBuild(b *testing.B) { benchExperiment(b, "E1") }

// Fig. 2: GLS grid hierarchy and server sets.
func BenchmarkE2_GLSServers(b *testing.B) { benchExperiment(b, "E2") }

// Fig. 3: ALCA state occupancy and unit transitions.
func BenchmarkE3_StateDynamics(b *testing.B) { benchExperiment(b, "E3") }

// Eq. 4: f0 = Θ(1).
func BenchmarkE4_LinkChangeRate(b *testing.B) { benchExperiment(b, "E4") }

// Eq. 3: h_k = Θ(√c_k).
func BenchmarkE5_HopScaling(b *testing.B) { benchExperiment(b, "E5") }

// Eqs. 8–9: f_k = Θ(1/h_k).
func BenchmarkE6_MigrationFreq(b *testing.B) { benchExperiment(b, "E6") }

// Eq. 6: φ(N) scaling.
func BenchmarkE7_MigrationOverhead(b *testing.B) { benchExperiment(b, "E7") }

// Eq. 14: g'_k = O(1/h_k).
func BenchmarkE8_ClusterLinkFreq(b *testing.B) { benchExperiment(b, "E8") }

// Eqs. 10–11: γ(N) scaling.
func BenchmarkE9_ReorgOverhead(b *testing.B) { benchExperiment(b, "E9") }

// §5.2: event classes i–vii breakdown.
func BenchmarkE10_EventBreakdown(b *testing.B) { benchExperiment(b, "E10") }

// Eq. 22: q1 estimation (the paper's future work).
func BenchmarkE11_Q1Estimate(b *testing.B) { benchExperiment(b, "E11") }

// Eq. 13: |E_k| = Θ(|V|/c_k).
func BenchmarkE12_LevelEdgeCount(b *testing.B) { benchExperiment(b, "E12") }

// §2.1: routing table reduction and stretch.
func BenchmarkE13_TableSize(b *testing.B) { benchExperiment(b, "E13") }

// §3: CHLM vs GLS maintenance traffic.
func BenchmarkE14_GLSCompare(b *testing.B) { benchExperiment(b, "E14") }

// Headline: total φ+γ vs N, both regimes.
func BenchmarkE15_TotalOverhead(b *testing.B) { benchExperiment(b, "E15") }

// Ablations.
func BenchmarkA1_ElectorLadder(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2_MaxMin(b *testing.B)        { benchExperiment(b, "A2") }
func BenchmarkA3_HashFamily(b *testing.B)    { benchExperiment(b, "A3") }
func BenchmarkA4_NaiveNaming(b *testing.B)   { benchExperiment(b, "A4") }
func BenchmarkA5_UncappedTop(b *testing.B)   { benchExperiment(b, "A5") }

// BenchmarkSimulationTick measures the cost of one full scan tick
// (mobility + topology + clustering + identity tracking + LM update +
// accounting) at N=512, the harness's inner loop.
func BenchmarkSimulationTick(b *testing.B) {
	// One long run amortizes setup; ticks dominate.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(Config{N: 512, Seed: 1, Duration: 50, Warmup: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Ticks), "ticks/run")
	}
}

// --- steady-state tick sub-benchmarks ---
//
// The scan tick is the simulator's inner loop; at production scale its
// cost is dominated by four stages: unit-disk graph rebuild, edge
// diffing, hierarchy (re)construction, and the incremental LM table
// update. Each stage is benchmarked in a "fresh" variant (allocate
// everything per tick, the pre-optimization behavior) and a "reuse"
// variant (the double-buffered scratch/arena path simnet.Run actually
// takes), so the allocation reduction is visible in one `-benchmem`
// run. scripts/bench.sh records these into BENCH_<date>.json.

// tickFixture is two consecutive simulation snapshots at N nodes, one
// scan interval apart, plus the live spatial grid at the later scan.
type tickFixture struct {
	n          int
	rtx        float64
	pos0, pos1 []geom.Vec
	grid       *spatial.Grid
	g0, g1     *topology.Graph
	cfg        cluster.Config
	tracker    *cluster.IdentityTracker
	h0, h1     *cluster.Hierarchy
	ids0, ids1 *cluster.Identities
	sel        *lm.Selector
	t0         *lm.Table
	nodes      []int
}

func newTickFixture(n int) *tickFixture {
	f := &tickFixture{n: n, rtx: 100}
	simCfg := simnet.Config{N: n, Seed: 99}
	region := simCfg.Region()
	root := rng.NewRoot(99)
	model := mobility.NewWaypoint(region, 10, root.Stream("mobility"))
	f.pos0 = model.Init(n)
	f.pos0 = append([]geom.Vec(nil), f.pos0...)
	model.AdvanceTo(1.0, model.Init(n)) // discard; keep fixture simple
	// Rebuild model deterministically for the advanced snapshot.
	model2 := mobility.NewWaypoint(region, 10, rng.NewRoot(99).Stream("mobility"))
	f.pos1 = model2.Init(n)
	model2.AdvanceTo(1.0, f.pos1)

	f.grid = spatial.NewGridForDisc(region, f.rtx, n)
	for i, p := range f.pos0 {
		f.grid.Insert(i, p)
	}
	link := topology.NewUnitDisk(f.rtx)
	f.g0 = link.BuildInto(nil, n, f.pos0, f.grid, nil, nil)
	f.nodes = make([]int, n)
	for i := range f.nodes {
		f.nodes[i] = i
	}
	f.cfg = cluster.Config{ForceTopAt: 12}
	f.tracker = cluster.NewIdentityTracker()
	f.h0, f.ids0 = cluster.BuildWithIdentities(
		f.g0, topology.GiantComponent(f.g0, f.nodes), f.cfg, nil, nil, f.tracker, 0)
	f.sel = lm.NewSelector(nil)
	f.t0 = f.sel.BuildTable(f.h0, f.ids0)

	for i, p := range f.pos1 {
		f.grid.Update(i, p)
	}
	f.g1 = link.BuildInto(nil, n, f.pos1, f.grid, nil, nil)
	f.h1, f.ids1 = cluster.BuildWithIdentities(
		f.g1, topology.GiantComponent(f.g1, f.nodes), f.cfg, f.h0, f.ids0, f.tracker, 1)
	return f
}

const tickN = 512

func BenchmarkTickGraphRebuild(b *testing.B) {
	f := newTickFixture(tickN)
	link := topology.NewUnitDisk(f.rtx)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			link.BuildInto(nil, f.n, f.pos1, f.grid, nil, nil)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var spare *topology.Graph
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spare = link.BuildInto(spare, f.n, f.pos1, f.grid, nil, nil)
		}
	})
}

func BenchmarkTickDiff(b *testing.B) {
	f := newTickFixture(tickN)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topology.DiffEdges(f.g0, f.g1)
			cluster.ComputeDiff(f.h0, f.h1)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var es topology.DiffScratch
		var cs cluster.DiffScratch
		var d *cluster.Diff
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			es.Diff(f.g0, f.g1)
			d = cluster.ComputeDiffInto(d, f.h0, f.h1, &cs)
		}
	})
}

func BenchmarkTickHierarchy(b *testing.B) {
	f := newTickFixture(tickN)
	giant := topology.GiantComponent(f.g1, f.nodes)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster.BuildWithIdentities(f.g1, giant, f.cfg, f.h0, f.ids0, f.tracker, 1)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		a := cluster.NewArena()
		var rh *cluster.Hierarchy
		var rids *cluster.Identities
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.Recycle(rh, rids)
			rh, rids = cluster.BuildWithIdentitiesArena(
				a, f.g1, giant, f.cfg, f.h0, f.ids0, f.tracker, 1)
		}
	})
}

// maintainWorld drives a steady-state scan world at a fixed interval
// for the maintenance benchmarks: each advance() moves mobility one
// interval and rebuilds the unit-disk graph into the retired t-2
// buffer; each maintain() runs the tick's hierarchy-maintenance phase
// (the tick.cluster span: retire t-2, giant component, Maintain). The
// split lets benchmarks time the maintenance phase alone while the
// world advances off the clock.
type maintainWorld struct {
	n, tick       int
	rtx, interval float64
	model         *mobility.Waypoint
	pos           []geom.Vec
	grid          *spatial.Grid
	nodes         []int
	giantScr      topology.ComponentScratch
	mnt           *cluster.OracleMaintainer

	prevG, g, ng *topology.Graph
	prevH, h     *cluster.Hierarchy
	prevIDs, ids *cluster.Identities
	in           cluster.MaintainInput
}

func newMaintainWorld(n int, interval float64) *maintainWorld {
	const rtx, mu = 100.0, 10.0
	region := simnet.Config{N: n, Seed: 99}.Region()
	w := &maintainWorld{n: n, rtx: rtx, interval: interval}
	w.model = mobility.NewWaypoint(region, mu, rng.NewRoot(99).Stream("mobility"))
	w.pos = w.model.Init(n)
	w.grid = spatial.NewGridForDisc(region, rtx, n)
	for i, p := range w.pos {
		w.grid.Insert(i, p)
	}
	w.nodes = make([]int, n)
	for i := range w.nodes {
		w.nodes[i] = i
	}
	w.mnt = cluster.NewOracleMaintainer(cluster.Config{ForceTopAt: 12}, cluster.NewIdentityTracker())
	w.g = topology.NewUnitDisk(rtx).BuildInto(nil, n, w.pos, w.grid, nil, nil)
	w.in = cluster.MaintainInput{G0: w.g, Nodes: w.giantScr.Giant(w.g, w.nodes)}
	w.h, w.ids = w.mnt.Maintain(&w.in)
	// Settle into steady state before measurement: the first ticks pay
	// cold-start costs (initial full build, scratch growth, early
	// hierarchy shake-out) that a long-running simulation amortizes away.
	for i := 0; i < 25; i++ {
		w.advance()
		w.maintain()
	}
	return w
}

// advance prepares the next tick's MaintainInput: mobility, grid,
// graph rebuild (into the retired t-2 buffer), and the giant-component
// cover. The maintenance benchmarks run it off the clock.
func (w *maintainWorld) advance() {
	w.tick++
	t := float64(w.tick) * w.interval
	w.model.AdvanceTo(t, w.pos)
	for j, p := range w.pos {
		w.grid.Update(j, p)
	}
	w.ng = topology.NewUnitDisk(w.rtx).BuildInto(w.prevG, w.n, w.pos, w.grid, nil, nil)
	w.in = cluster.MaintainInput{
		G0: w.ng, Nodes: w.giantScr.Giant(w.ng, w.nodes),
		PrevH: w.h, PrevIDs: w.ids, Now: t,
	}
}

// maintain retires the t-2 snapshot and Maintains the new one from the
// prepared input.
func (w *maintainWorld) maintain() {
	w.mnt.Retire(w.prevH, w.prevIDs)
	nh, nids := w.mnt.Maintain(&w.in)
	w.prevG, w.g = w.g, w.ng
	w.prevH, w.prevIDs, w.h, w.ids = w.h, w.ids, nh, nids
}

// BenchmarkTickClusterMaintain times hierarchy maintenance — the full
// ALCA fixed point rebuilt every tick — on a live steady-state world.
// The matrix varies the scan interval at fixed speed (Mu=10). Only the
// maintenance phase (retire + Maintain) is timed; mobility and the
// graph rebuild run off the clock. µs/simsec is the comparable figure
// across intervals.
func BenchmarkTickClusterMaintain(b *testing.B) {
	for _, interval := range []float64{1.0, 0.2, 0.1} {
		b.Run(fmt.Sprintf("oracle/interval=%v", interval), func(b *testing.B) {
			w := newMaintainWorld(tickN, interval)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.advance()
				b.StartTimer()
				w.maintain()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/(float64(b.N)*interval), "µs/simsec")
		})
	}
}

func BenchmarkTickLMUpdate(b *testing.B) {
	f := newTickFixture(tickN)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.sel.UpdateTable(f.t0, f.h0, f.ids0, f.h1, f.ids1)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var sc lm.UpdateScratch
		var dst *lm.Table
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = f.sel.UpdateTableIntoPar(dst, &sc, nil, f.t0, f.h0, f.ids0, f.h1, f.ids1, nil, nil)
		}
	})

	// Low-churn leg: on a live world at interval=0.1s (Mu=10) the
	// per-tick delta touches only a handful of clusters, so the update
	// reuses each clean level's server and re-traces dirty ones, with
	// the dirty set computed from the snapshot pair. Each tick patches
	// the previous table, double-buffered exactly like the simulation
	// loop.
	b.Run("lowchurn/self", func(b *testing.B) {
		const lowChurn = 0.1
		w := newMaintainWorld(tickN, lowChurn)
		sel := lm.NewSelector(nil)
		var sc lm.UpdateScratch
		t0 := sel.BuildTable(w.h, w.ids)
		var spare *lm.Table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.advance()
			w.maintain()
			b.StartTimer()
			nt := sel.UpdateTableIntoPar(spare, &sc, nil, t0,
				w.prevH, w.prevIDs, w.h, w.ids, nil, nil)
			spare, t0 = t0, nt
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Microseconds())/(float64(b.N)*lowChurn), "µs/simsec")
	})
}

// BenchmarkBuildLinks compares the per-scan rebuild cost of the link
// models through the LinkModel interface, under live waypoint motion.
// The unit-disk build is the pure grid pair scan; logshadow adds the
// per-candidate shadowing draw + hysteresis predicate AND widens the
// candidate radius to the worst-case break distance (≈3σ + M/2 dB of
// extra range), so its µs/simsec figure prices the lossy radio's
// whole overhead, not just the predicate.
func BenchmarkBuildLinks(b *testing.B) {
	const rtx, mu, interval = 100.0, 10.0, 1.0
	n := tickN
	region := simnet.Config{N: n, Seed: 99}.Region()
	models := []struct {
		name string
		mk   func() topology.LinkModel
	}{
		{"unitdisk", func() topology.LinkModel { return topology.NewUnitDisk(rtx) }},
		{"logshadow", func() topology.LinkModel { return topology.NewLogShadow(rtx, 3, 4, 3, 99) }},
	}
	for _, tc := range models {
		b.Run(tc.name+"/serial", func(b *testing.B) {
			link := tc.mk()
			model := mobility.NewWaypoint(region, mu, rng.NewRoot(99).Stream("mobility"))
			pos := model.Init(n)
			grid := spatial.NewGridForDisc(region, rtx, n)
			for i, p := range pos {
				grid.Insert(i, p)
			}
			var g *topology.Graph
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := float64(i+1) * interval
				model.AdvanceTo(t, pos)
				for j, p := range pos {
					grid.Update(j, p)
				}
				g = link.BuildInto(g, n, pos, grid, nil, nil)
			}
			b.StopTimer()
			_ = g
			b.ReportMetric(float64(b.Elapsed().Microseconds())/(float64(b.N)*interval), "µs/simsec")
		})
	}
}

// Motivation: measured flat-LM baselines vs the hierarchy.
func BenchmarkE16_FlatBaselines(b *testing.B) { benchExperiment(b, "E16") }

// §6: query cost absorbed into sessions.
func BenchmarkE17_QueryAbsorption(b *testing.B) { benchExperiment(b, "E17") }

// Extension: the node birth/death case the paper excluded.
func BenchmarkE18_Churn(b *testing.B) { benchExperiment(b, "E18") }

// Extension: entry-transfer latency through the message-level DES.
func BenchmarkE19_HandoffLatency(b *testing.B) { benchExperiment(b, "E19") }

// Ablation: group mobility (RPGM).
func BenchmarkA6_GroupMobility(b *testing.B) { benchExperiment(b, "A6") }
