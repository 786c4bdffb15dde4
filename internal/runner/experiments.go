package runner

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/gls"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Scale sizes an experiment run. Quick keeps everything test-sized;
// Full reproduces the shapes with enough range to fit scaling laws.
type Scale struct {
	Ns       []int   `json:"ns"`       // sweep node counts
	Seeds    int     `json:"seeds"`    // seeds per cell
	Duration float64 `json:"duration"` // measured sim seconds
	Warmup   float64 `json:"warmup"`
	BigN     int     `json:"big_n"` // node count for single-N experiments
	Par      int     `json:"par"`   // worker-pool width (0 = GOMAXPROCS)
	// Mobility and Link re-run the whole battery under a different
	// scenario model ("" = the paper regime: waypoint / unitdisk; see
	// simnet.MobilityModels and simnet.LinkModels). This is the sweep
	// axis Z1 iterates explicitly; setting it here instead re-points
	// every experiment (E4–E15 included) at one zoo cell.
	Mobility string `json:"mobility,omitempty"`
	Link     string `json:"link,omitempty"`

	// Metrics, when non-nil, receives run observability from every
	// simulation the experiment launches (phase timers, tick counters;
	// see internal/obs) plus sweep-level cell metrics. Threaded into
	// each config by baseConfig.
	Metrics *obs.Registry `json:"-"`
	// Progress, when non-nil, receives sweep progress lines (cells
	// finished/failed, per-cell wall time, ETA), typically os.Stderr.
	Progress io.Writer `json:"-"`
}

// QuickScale is used by tests and smoke runs.
func QuickScale() Scale {
	return Scale{Ns: []int{64, 128, 256}, Seeds: 2, Duration: 60, Warmup: 15, BigN: 128}
}

// FullScale is the default for cmd/experiments.
func FullScale() Scale {
	return Scale{Ns: []int{64, 128, 256, 512, 1024, 2048}, Seeds: 3, Duration: 240, Warmup: 60, BigN: 512}
}

// Experiment is one reproducible artifact from DESIGN.md §4.
type Experiment struct {
	ID    string
	Title string
	Paper string // the paper artifact/claim it regenerates
	Run   func(w io.Writer, sc Scale) error
}

// Registry returns all experiments in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", "ALCA hierarchy example", "Fig. 1", runE1},
		{"E2", "GLS grid hierarchy", "Fig. 2", runE2},
		{"E3", "ALCA state dynamics", "Fig. 3", runE3},
		{"E4", "Level-0 link change rate", "Eq. 4: f_0 = Θ(1)", runE4},
		{"E5", "Intra-cluster hop scaling", "Eq. 3: h_k = Θ(√c_k)", runE5},
		{"E6", "Migration frequency vs level", "Eq. 9: f_k = Θ(1/h_k)", runE6},
		{"E7", "Migration handoff overhead", "Eq. 6: φ = Θ(log²N)", runE7},
		{"E8", "Cluster-link change rate", "Eq. 14: g'_k = O(1/h_k)", runE8},
		{"E9", "Reorganization handoff overhead", "Eqs. 10-11: γ = Θ(log²N)", runE9},
		{"E10", "Reorg trigger breakdown", "§5.2 events i-vii", runE10},
		{"E11", "Critical-state probability q1", "Eq. 22 (paper future work)", runE11},
		{"E12", "Level edge-count scaling", "Eq. 13: |E_k|/|V| = Θ(1/c_k)", runE12},
		{"E13", "Routing table size & stretch", "§2.1 / Kleinrock-Kamoun", runE13},
		{"E14", "CHLM vs GLS update cost", "§3 comparison", runE14},
		{"E15", "Total handoff overhead", "headline Θ(log²N)", runE15},
		{"E16", "Flat-LM baselines, measured", "motivation / §6", runE16},
		{"E17", "Query absorption", "§6 query argument", runE17},
		{"E18", "Node birth/death churn", "extension (§1 excluded case)", runE18},
		{"E19", "Handoff latency", "extension (message-level DES)", runE19},
		{"A1", "Election hysteresis ladder", "ablation", runA1},
		{"A2", "Max-min d=2 clustering", "ablation", runA2},
		{"A3", "Hash family load equity", "ablation (§3.2 remark)", runA3},
		{"A4", "Naive head-ID naming", "ablation (identity continuity)", runA4},
		{"A5", "Uncapped hierarchy top", "ablation (forced top)", runA5},
		{"A6", "Group mobility (RPGM)", "ablation (HSR motivation, §2.1)", runA6},
		{"Z1", "Model-zoo φ/γ matrix", "ROADMAP item 4 (out-of-model probe)", runZ1},
	}
}

// StabilizedConfig applies the full stabilization stack to a base
// configuration: LCC-style debounced elections with level-scaled grace
// and the forced-top cap (identity continuity is always on unless
// NaiveNaming). This is the regime in which the paper's Θ(1/h_k)
// event-frequency premises hold best; the paper-literal regime is the
// default (memoryless re-election).
func StabilizedConfig(cfg simnet.Config) simnet.Config {
	cfg.Elector = &cluster.DebouncedLCA{Grace: 10, LevelScale: 1.9}
	return cfg
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ---

// staticLayout builds a static uniform layout with the harness's
// standard density and returns positions and the unit-disk graph.
func staticLayout(n int, seed uint64) ([]geom.Vec, *topology.Graph, geom.Disc) {
	cfg := simnet.Config{N: n, Seed: seed}
	region := cfg.Region()
	src := rng.NewRoot(seed).Stream("static-layout")
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = region.Sample(src)
	}
	g := topology.BuildUnitDiskBrute(pos, 100)
	return pos, g, region
}

// staticHierarchy clusters the giant component of a static layout. Its
// identities name every cluster by its head ID (Passthrough).
func staticHierarchy(n int, seed uint64) (*cluster.Hierarchy, *cluster.Identities, *topology.Graph) {
	_, g, _ := staticLayout(n, seed)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	giant := topology.GiantComponent(g, all)
	tr := cluster.NewIdentityTracker()
	tr.Passthrough = true
	h, ids := cluster.BuildWithIdentities(g, giant, cluster.Config{}, nil, nil, tr, 0)
	return h, ids, g
}

func baseConfig(sc Scale) simnet.Config {
	return simnet.Config{
		Duration: sc.Duration, Warmup: sc.Warmup, Metrics: sc.Metrics,
		Mobility: sc.Mobility, Link: sc.Link,
	}
}

// sweepSpec builds the standard sweep for an experiment: the scale's
// Ns × Seeds grid over base, with the scale's parallelism budget and
// progress sink attached.
func sweepSpec(sc Scale, base simnet.Config, seedBase uint64) SweepSpec {
	return SweepSpec{
		Ns: sc.Ns, Seeds: sc.Seeds, Base: base,
		Parallelism: sc.Par, SeedBase: seedBase, Progress: sc.Progress,
	}
}

func fprintFits(w io.Writer, label string, ns, ys []float64) {
	fits := stats.FitAll(ns, ys)
	fmt.Fprintf(w, "%s model fits (best RMSE first):\n", label)
	if len(fits) == 0 {
		fmt.Fprintf(w, "  (no fit: sweep needs >= 3 runs over distinct N)\n")
		return
	}
	for _, f := range fits {
		fmt.Fprintf(w, "  %s\n", f)
	}
	switch p, err := stats.PowerExponent(ns, ys); {
	case err == nil:
		fmt.Fprintf(w, "  free power-law exponent p = %.3f (polylog ⇒ p ≪ 0.5)\n", p)
	case errors.Is(err, stats.ErrDegenerate):
		fmt.Fprintf(w, "  power-law exponent unavailable: %v\n", err)
	}
}

// --- E1: Fig. 1 hierarchy example ---

// RenderHierarchy pretty-prints a hierarchy in the style of the
// paper's Fig. 1: one block per level listing each cluster and its
// members.
func RenderHierarchy(w io.Writer, h *cluster.Hierarchy) {
	for k := 0; k <= h.L(); k++ {
		lvl := h.Level(k)
		fmt.Fprintf(w, "level %d: %d nodes, %d links\n", k, len(lvl.Nodes), lvl.Graph.EdgeCount())
		if !lvl.Elected() {
			continue
		}
		for _, c := range h.LevelNodes(k + 1) {
			fmt.Fprintf(w, "  cluster %d: members %v (head state %d)\n", c, lvl.MembersOf(c), lvl.StateOf(c))
		}
	}
}

func runE1(w io.Writer, sc Scale) error {
	// A 30-node static network, like the paper's Fig. 1 scenario.
	h, _, _ := staticHierarchy(30, 42)
	fmt.Fprintln(w, "E1 (Fig. 1): recursive ALCA clustering of a 30-node network")
	RenderHierarchy(w, h)
	fmt.Fprintf(w, "levels built: %d (paper's example: 3)\n", h.L())
	if err := h.Validate(); err != nil {
		return err
	}
	// Show example hierarchical addresses like "100.85.37.63".
	nodes := h.LevelNodes(0)
	for i := 0; i < 3 && i < len(nodes); i++ {
		v := nodes[i*len(nodes)/3]
		fmt.Fprintf(w, "address of node %d: %v\n", v, h.AncestorChain(v))
	}
	return nil
}

// --- E2: Fig. 2 GLS grid ---

func runE2(w io.Writer, sc Scale) error {
	pos, _, region := staticLayout(200, 7)
	grid := gls.NewGrid(region, 100)
	idx := gls.NewIndex(grid, pos)
	v := 63 % len(pos)
	fmt.Fprintf(w, "E2 (Fig. 2): GLS grid hierarchy around node %d at %v\n", v, pos[v])
	for _, sq := range grid.Chain(pos[v]) {
		fmt.Fprintf(w, "  contained in %v\n", sq)
	}
	sa := idx.ServersFor(v, len(pos))
	for level, row := range sa.Servers {
		fmt.Fprintf(w, "  level-%d sibling servers: %v\n", level+1, row)
	}
	tbl := gls.BuildTable(idx, len(pos))
	load := tbl.Load()
	max, total := 0, 0
	for _, c := range load {
		total += c
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(w, "server load: mean %.2f, max %d over %d nodes\n",
		float64(total)/float64(len(pos)), max, len(pos))
	return nil
}

// --- E3: Fig. 3 state dynamics ---

func runE3(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "E3 (Fig. 3): ALCA state occupancy and transition step sizes")
	tw := NewTable("scan dt (s)", "transitions", "unit fraction", "P(state=1) L1", "mean state L1")
	for _, dt := range []float64{1.0, 0.5, 0.2, 0.1} {
		cfg := baseConfig(sc)
		cfg.N = sc.BigN
		cfg.Seed = 3
		cfg.ScanInterval = dt
		cfg.TrackStates = true
		r, err := simnet.Run(cfg)
		if err != nil {
			return err
		}
		frac, total := r.States.UnitTransitionFraction()
		p1, _ := r.States.P1(1)
		tw.Rowf(dt, total, frac, p1, r.States.MeanState(1))
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "PAPER: transitions occur only between adjacent states in the continuous-time limit.")
	fmt.Fprintln(w, "CHECK: unit fraction → 1 as dt → 0.")
	return nil
}

// --- E4: Eq. 4, f0 constant ---

func runE4(w io.Writer, sc Scale) error {
	spec := sweepSpec(sc, baseConfig(sc), 400)
	rows, errs := Aggregate(Sweep(spec))
	if len(errs) > 0 {
		return errs[0]
	}
	fmt.Fprintln(w, "E4 (Eq. 4): level-0 link state changes per node per second")
	tw := NewTable("N", "f0", "±95%", "giant")
	for _, r := range rows {
		tw.Rowf(r.N, r.F0.Mean(), r.F0.CI95(), r.Giant.Mean())
	}
	fmt.Fprint(w, tw.String())
	ns, ys := Series(rows, func(r *AggRow) float64 { return r.F0.Mean() })
	switch p, err := stats.PowerExponent(ns, ys); {
	case err == nil:
		fmt.Fprintf(w, "power-law exponent of f0(N): %.3f (paper: 0 — constant)\n", p)
	case errors.Is(err, stats.ErrDegenerate):
		fmt.Fprintf(w, "power-law exponent of f0(N) unavailable: %v\n", err)
	}
	return nil
}

// --- E5: Eq. 3, h_k = Θ(√c_k) ---

func runE5(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "E5 (Eq. 3): intra-cluster hop count h_k vs √c_k (static layouts)")
	tw := NewTable("N", "k", "c_k", "h_k", "h_k/√c_k")
	var sampler cluster.HopSampler
	var hops []int
	for _, n := range sc.Ns {
		h, _, g := staticHierarchy(n, uint64(500+n))
		src := rng.New(uint64(n))
		for k := 1; k <= h.L(); k++ {
			hops = sampler.Sample(hops[:0], h, g, k, src, 120, 400)
			if len(hops) == 0 {
				continue
			}
			var acc stats.Welford
			for _, x := range hops {
				acc.Add(float64(x))
			}
			ck := h.Aggregation(k)
			tw.Rowf(n, k, ck, acc.Mean(), acc.Mean()/math.Sqrt(ck))
		}
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "PAPER: h_k/√c_k ≈ constant across levels and N.")
	return nil
}

// --- E6: Eq. 9, f_k = Θ(1/h_k) ---

func runE6(w io.Writer, sc Scale) error {
	base := baseConfig(sc)
	base.SampleHops = 25
	spec := sweepSpec(sc, base, 600)
	rows, errs := Aggregate(Sweep(spec))
	if len(errs) > 0 {
		return errs[0]
	}
	fmt.Fprintln(w, "E6 (Eqs. 8-9): level-k migration frequency f_k times h_k")
	tw := NewTable("N", "k", "f_k (mig/node/s)", "h_k", "f_k·h_k")
	for _, r := range rows {
		for k := 1; k < len(r.FMigByLevel); k++ {
			fk := r.FMigByLevel[k].Mean()
			hk := 0.0
			if k < len(r.HopByLevel) {
				hk = r.HopByLevel[k].Mean()
			}
			//lint:ignore floateq exact-zero sentinel for levels with no observations
			if fk == 0 || hk == 0 {
				continue
			}
			tw.Rowf(r.N, k, fk, hk, fk*hk)
		}
	}
	fmt.Fprint(w, tw.String())
	fmt.Fprintln(w, "PAPER: f_k·h_k ≈ constant across k (Eq. 9), so φ_k = O(log N).")
	return nil
}
