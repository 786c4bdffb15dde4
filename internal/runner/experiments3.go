package runner

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/flatlm"
	"repro/internal/geom"
	"repro/internal/gls"
	"repro/internal/lm"
	"repro/internal/netml"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// --- E16: measured flat-LM baselines ---

// runE16 drives the two non-hierarchical baselines (home agent,
// flooding) with the same mobility traces as CHLM and compares control
// traffic — the measured version of the paper's motivation and of the
// Θ(√N) strawman that E15 draws analytically.
func runE16(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "E16 (motivation): measured LM control traffic, hierarchical vs flat,")
	fmt.Fprintln(w, "pkts/node/s on identical mobility traces. Flat schemes update after a")
	fmt.Fprintln(w, "node moves R_TX/2; CHLM column is φ+γ+registration+updates.")
	tw := NewTable("N", "CHLM total", "home-agent", "flooding", "ratio flood/CHLM")
	for _, n := range sc.Ns {
		cfg := baseConfig(sc)
		cfg.N = n
		cfg.Seed = uint64(1600 + n)
		var (
			agent        *flatlm.HomeAgent
			flood        *flatlm.Flooding
			aPkts, fPkts float64
			ticks        int
			posCopy      = make([]geom.Vec, n)
		)
		cfg.Observer = func(ev simnet.ObsEvent) {
			if ev.Time <= cfg.Warmup {
				return
			}
			copy(posCopy, ev.Positions)
			if agent == nil {
				hop := topology.NewEuclideanHops(posCopy, 100, 1.3)
				agent = flatlm.NewHomeAgent(n, 50, hop)
				flood = flatlm.NewFlooding(n, 50)
				agent.Tick(posCopy) // initial registration not counted
				flood.Tick(posCopy)
				return
			}
			aPkts += agent.Tick(posCopy)
			fPkts += flood.Tick(posCopy)
			ticks++
		}
		r, err := simnet.Run(cfg)
		if err != nil {
			return err
		}
		scan := r.Config.ScanInterval
		//lint:ignore floateq zero is the unset-config sentinel
		if scan == 0 {
			scan = 1
		}
		T := float64(ticks) * scan
		//lint:ignore floateq exact-zero guard before division
		if T == 0 {
			T = 1
		}
		chlm := r.TotalRate() + r.RegRate + r.UpdateRate
		aRate := aPkts / (float64(n) * T)
		fRate := fPkts / (float64(n) * T)
		tw.Rowf(n, chlm, aRate, fRate, fRate/chlm)
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "PAPER: flat dissemination is Θ(N) per node and a rendezvous point Θ(√N);")
	fmt.Fprintln(w, "       the hierarchy's growth must stay below both — check the columns' slopes.")
	return nil
}

// --- E17: query absorption (§6) ---

func runE17(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "E17 (§6): location-query cost vs session traffic. The paper argues a")
	fmt.Fprintln(w, "query costs the same order as the q->d hop count and happens once per")
	fmt.Fprintln(w, "session, so it is absorbed; the ratio column must stay small and flat.")
	tw := NewTable("N", "sessions", "query pkts", "session pkts", "query/session", "GLS query")
	for _, n := range sc.Ns {
		// Static snapshot per N: queries probe the LM structure; their
		// cost model needs no mobility.
		seed := uint64(1700 + n)
		pos, g, region := staticLayout(n, seed)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		giant := topology.GiantComponent(g, all)
		tr := cluster.NewIdentityTracker()
		h, ids := cluster.BuildWithIdentities(g, giant, cluster.Config{ForceTopAt: 12}, nil, nil, tr, 0)
		sel := lm.NewSelector(nil)
		hop := topology.NewEuclideanHops(pos, 100, 1.3)

		gen := workload.MustNewGenerator(workload.Config{Rate: 0.05, PacketsPerSession: 20},
			rng.NewRoot(seed).Stream("workload"))
		var st workload.Stats
		for tick := 0; tick < 60; tick++ {
			gen.Tick(1.0, h, ids, sel, hop, &st)
		}

		// GLS query cost on the same layout for comparison.
		grid := gls.NewGrid(region, 100)
		idx := gls.NewIndex(grid, pos)
		qsrc := rng.NewRoot(seed).Stream("gls-queries")
		var glsSum float64
		var glsN int
		for i := 0; i < 200; i++ {
			q := giant[qsrc.Intn(len(giant))]
			d := giant[qsrc.Intn(len(giant))]
			if q == d {
				continue
			}
			if res := idx.Query(q, d, n, hop.Hops); res.Found {
				glsSum += float64(res.Packets)
				glsN++
			}
		}
		glsAvg := 0.0
		if glsN > 0 {
			glsAvg = glsSum / float64(glsN)
		}
		tw.Rowf(n, st.Sessions, st.QueryPkts.Mean(), st.RoutePkts.Mean(),
			st.QueryToRoute.Mean(), glsAvg)
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "CHECK: query/session stays roughly constant with N (absorption holds).")
	return nil
}

// --- E18: node birth/death (the paper's excluded case) ---

func runE18(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "E18 (extension): node death/birth churn — the paper assumes this is")
	fmt.Fprintln(w, "\"extremely rare\" and does not evaluate it (§1). Sweeping the churn rate")
	fmt.Fprintln(w, "shows when that assumption matters: handoff (φ+γ) barely moves, but")
	fmt.Fprintln(w, "re-registration of returning nodes grows linearly with churn.")
	tw := NewTable("deaths/node/hour", "measured", "φ", "γ", "reg", "updates", "giant")
	n := sc.BigN
	for _, perHour := range []float64{0, 3.6, 18, 72, 180} {
		cfg := baseConfig(sc)
		cfg.N = n
		cfg.Seed = uint64(1800 + int(perHour*10))
		cfg.ChurnRate = perHour / 3600
		r, err := simnet.Run(cfg)
		if err != nil {
			return err
		}
		tw.Rowf(perHour, r.DeathRate*3600, r.PhiRate, r.GammaRate, r.RegRate, r.UpdateRate, r.GiantFraction)
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "CHECK: at realistic churn (a few deaths/node/hour) every column is within")
	fmt.Fprintln(w, "noise of the churn-free row — the paper's exclusion is justified. At extreme")
	fmt.Fprintln(w, "churn the network itself degrades (giant column): nodes spend their downtime")
	fmt.Fprintln(w, "outside the LM, so all traffic falls with the population, not because of LM.")
	return nil
}

// --- E19: handoff latency through the message layer ---

// runE19 replays the simulation with LM entry transfers dispatched as
// real hop-by-hop messages through the DES network layer, measuring
// handoff *latency* per hierarchy level. The paper's model implies a
// level-k handoff completes in Θ(h_k) per-hop delays.
func runE19(w io.Writer, sc Scale) error {
	const perHop = 0.005 // 5 ms per transmission
	n := sc.BigN
	fmt.Fprintf(w, "E19 (extension): LM entry-transfer latency by level at N=%d,\n", n)
	fmt.Fprintf(w, "%.0f ms per hop, transfers forwarded hop-by-hop with rerouting.\n", perHop*1000)

	s, err := simnet.NewStepper(simnet.Config{N: n, Seed: 1900, Duration: sc.Duration, Warmup: sc.Warmup})
	if err != nil {
		return err
	}
	cfg := s.Config()
	engine := sim.NewEngine()
	nw := netml.New(engine, s.Graph(), perHop, 0)

	var latency, hops stats.PerLevel // per level: ms and hop count
	engine.Ticker(cfg.ScanInterval, cfg.ScanInterval, "scan", func(e *sim.Engine) {
		prev := s.Table()
		s.Step()
		nw.Rebind(s.Graph())
		if e.Now() <= cfg.Warmup {
			return
		}
		for _, td := range lm.DiffTables(prev, s.Table()) {
			if td.OldServer < 0 || td.NewServer < 0 {
				continue
			}
			level := td.Level
			nw.Send(td.OldServer, td.NewServer, func(d netml.Delivery) {
				if !d.OK {
					return
				}
				latency.Add(level, d.Latency*1000) // ms
				hops.Add(level, float64(d.Hops))
			})
		}
	})
	engine.RunUntil(cfg.Warmup + cfg.Duration)

	tw := NewTable("k", "transfers", "mean hops", "latency (ms)")
	for k := 1; k <= latency.Max(); k++ {
		if l := latency.Level(k); l.N() > 0 {
			h := hops.Level(k)
			tw.Rowf(k, l.N(), h.Mean(), l.Mean())
		}
	}
	fmt.Fprint(w, tw.String())
	sent, delivered, failed := nw.Stats()
	fmt.Fprintf(w, "messages: %d sent, %d delivered, %d failed (partitions/reroute dead-ends)\n",
		sent, delivered, failed)
	fmt.Fprintln(w, "CHECK: latency grows with level ∝ mean hops — a level-k handoff takes Θ(h_k) hop-delays.")
	return nil
}

// --- A6: group mobility ---

// runA6 swaps random waypoint for reference-point group mobility
// (RPGM) — the group-movement scenario HSR (which the paper cites in
// §2.1) was designed for. Clusters align with groups, so cluster
// membership churn is driven by group encounters rather than
// individual boundary crossings.
func runA6(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "A6 (ablation): random waypoint vs group mobility (RPGM, 16-node groups,")
	fmt.Fprintln(w, "wander radius 2·R_TX). Hierarchical LM should benefit when motion is")
	fmt.Fprintln(w, "group-structured — the scenario hierarchical routing was designed for.")
	tw := NewTable("N", "mobility", "f0", "φ", "γ", "total")
	for _, n := range sc.Ns {
		for _, mob := range []string{simnet.MobilityWaypoint, simnet.MobilityGroup} {
			cfg := baseConfig(sc)
			cfg.N = n
			cfg.Seed = uint64(2600 + n)
			cfg.Mobility = mob
			r, err := simnet.Run(cfg)
			if err != nil {
				return err
			}
			tw.Rowf(n, mob, r.F0, r.PhiRate, r.GammaRate, r.TotalRate())
		}
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "CHECK: handoff totals drop under RPGM — group-coherent motion preserves")
	fmt.Fprintln(w, "clusters even though dense groups keep level-0 links churning.")
	return nil
}
