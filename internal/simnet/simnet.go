// Package simnet assembles the full simulation: mobility drives node
// positions, the unit-disk graph is rescanned at a fixed interval, the
// clustered hierarchy is recomputed to its ALCA fixed point, the CHLM
// server table is updated incrementally, and every change is fed to
// the handoff accountant and the event classifiers. One Run produces
// the per-level overhead rates the paper's analysis predicts.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/invariant"
	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/topology"
)

// Mobility model names accepted by Config (see registry.go for the
// constructors and MobilityModels for deterministic enumeration).
const (
	MobilityWaypoint    = "waypoint"
	MobilityDirection   = "direction"
	MobilityStatic      = "static"
	MobilityGroup       = "group"        // RPGM (ablation A6)
	MobilityGaussMarkov = "gauss-markov" // temporally correlated velocity
	MobilityManhattan   = "manhattan"    // street-grid constrained
	MobilityHotspot     = "hotspot"      // attraction points with dwell
)

// Link model names accepted by Config.Link (see registry.go and
// topology.LinkModel).
const (
	// LinkUnitDisk is the paper's link model: connected iff within
	// RTX.
	LinkUnitDisk = "unitdisk"
	// LinkLogShadow is log-distance path loss with per-pair lognormal
	// shadowing and RSSI hysteresis (topology.LogShadow).
	LinkLogShadow = "logshadow"
)

// Hop model names accepted by Config.
const (
	HopEuclidean = "euclid"
	HopBFS       = "bfs"
)

// Fault names accepted by Config.Fault (fault injection for the
// invariant harness; see the Fault field).
const (
	// FaultHandoffMisroute periodically rewrites one live LM table
	// entry to point at the wrong (but live) server — a handoff that
	// failed to rehome an entry. Only the table-rebuild-equal invariant
	// can see it, which is exactly what it exists to demonstrate.
	FaultHandoffMisroute = "handoff-misroute"
)

// faultPeriod is the tick period of fault injection: prime and < 200
// so a shrunk reproduction always fits the ≤ 200-tick budget.
const faultPeriod = 37

// Config parameterizes one simulation run. Zero fields take the
// defaults documented on each field.
//
// Optional float fields share one sentinel convention: 0 (the Go zero
// value) means "unset, use the default", and a negative value means
// "exactly zero". The explicit-zero form matters for Warmup (run with
// no warmup: Warmup = -1); for fields that must be positive it yields
// a validation error from Run instead of a silently substituted
// default.
type Config struct {
	N    int    // node count (required)
	Seed uint64 // experiment seed

	RTX    float64 // transmission radius, m (default 100; 0 = default, < 0 rejected)
	Degree float64 // target mean node degree; fixes density (default 9; 0 = default, < 0 rejected)
	Mu     float64 // node speed, m/s (default 10; 0 = default, < 0 = exactly 0, static models only)

	// ScanInterval is the link-scan period. Default (0): enough that a
	// node moves at most RTX/10 per tick, capped at 1 s. Negative is
	// rejected.
	ScanInterval float64
	Duration     float64 // measured sim time, s (default 300; 0 = default, < 0 rejected)
	Warmup       float64 // discarded leading sim time, s (default 60; 0 = default, < 0 = no warmup)

	// Mobility selects the mobility model by registry name (default
	// "waypoint"; see MobilityModels for the full zoo).
	Mobility string
	// Link selects the level-0 link model by registry name (default
	// "unitdisk"; see LinkModels). The model's graph is rebuilt by a
	// grid scan over all live nodes every tick.
	Link string
	// Log-shadowing parameters (Link == "logshadow"): path-loss
	// exponent η (default 3; 0 = default, <= 0 rejected), shadowing
	// std dev σ in dB (default 4; 0 = default, < 0 = exactly 0), and
	// the hysteresis margin M in dB split around the nominal threshold
	// (default 3; 0 = default, < 0 = exactly 0 — no hysteresis).
	PathLossExp float64
	ShadowSigma float64
	LinkMargin  float64
	HopModel    string  // euclid (default) | bfs
	Detour      float64 // Euclidean hop detour factor (default 1.3; 0 = default, < 0 rejected)

	// Group-mobility parameters (Mobility == "group"): nodes per group
	// and the wander radius around the group reference point.
	GroupSize   int     // default 16
	GroupRadius float64 // default 2·RTX

	Elector   cluster.Elector // default MemorylessLCA
	Hash      lm.HashFamily   // default Rendezvous
	MaxLevels int             // hierarchy depth cap (default 24)

	// NaiveNaming disables cluster identity continuity: LM hashing and
	// handoff classification key on raw clusterhead IDs, so every head
	// relabel re-homes its subtree's entries (ablation A4).
	NaiveNaming bool

	// TopArity stops the clustering recursion once a level has at most
	// this many clusters and closes the hierarchy with one stable
	// forced top cluster (the paper's "desired number of cluster
	// levels"). 0 selects the default (12); -1 disables the cap and
	// recurses to a single elected top (ablation A5).
	TopArity int

	// ChurnRate enables node death/birth — the case the paper's §1
	// explicitly assumes away ("extremely rare ... not evaluated") and
	// experiment E18 evaluates. Each alive node dies with this rate
	// (per second); dead nodes rejoin after an exponential downtime of
	// mean MeanDowntime seconds, re-registering from scratch.
	ChurnRate    float64
	MeanDowntime float64 // default 30 s (0 = default, < 0 rejected when churn is on)

	TrackStates  bool // accumulate ALCA state statistics (E3, E11)
	TrackClasses bool // classify reorg triggers i–vii (E10)
	// SampleHops measures intra-cluster hop counts h_k by BFS every
	// SampleHops ticks (0 = off). Expensive; used by E5.
	SampleHops int
	// HopPairs bounds the sampled pairs per cluster level per sample.
	HopPairs int
	// Paranoid validates every hierarchy snapshot (tests).
	Paranoid bool

	// IntraTickParallelism sets the worker count for parallelizing the
	// heavy phases inside one scan tick (graph rebuild, LM table
	// update, hop sampling). 0 or 1 means serial (the default);
	// negative is rejected. Results are byte-identical to a serial run
	// for every worker count — see internal/par's determinism contract.
	IntraTickParallelism int

	// Observer, when non-nil, is invoked after every scan tick with
	// the live state. Used by examples and the trace tool.
	Observer func(ObsEvent)

	// CheckLevel selects how often the runtime invariant checker
	// (internal/invariant) audits the tick's snapshots: "" or "off"
	// (default) disables it, "sampled" checks every 16th tick, and
	// "every-tick" checks all of them. Violations carry the offending
	// tick, seed, and a minimal state dump; they are delivered to
	// OnViolation when set and panic otherwise.
	CheckLevel string

	// OnViolation receives invariant violations instead of panicking.
	// Used by the fuzzing harness (internal/invariant/prop) to collect,
	// shrink, and replay failing scenarios.
	OnViolation func(invariant.Violation)

	// Fault injects a deliberate bug into the tick loop (see the Fault*
	// constants) so tests can prove the invariant checker catches it.
	// Empty (default) injects nothing.
	Fault string

	// Metrics, when non-nil, receives run observability: wall-clock
	// phase timers for every stage of the scan tick (obs.PhaseTick and
	// its sub-phases), tick/transfer counters, and a hierarchy-depth
	// gauge. Purely observational — metrics never feed back into
	// simulation state or randomness, so Results and traces are
	// byte-identical with Metrics on or off (enforced by
	// TestMetricsDoNotPerturbResults).
	Metrics *obs.Registry
}

// ObsEvent is the per-tick observer payload.
//
// Lifetime: every field is valid only for the duration of the callback.
// The simulation loop double-buffers its snapshots and recycles their
// storage two ticks later, so an observer that needs data beyond the
// callback must copy it (as trace.Tracer does).
type ObsEvent struct {
	Time      float64
	Hierarchy *cluster.Hierarchy
	Diff      *cluster.Diff
	Transfers []lm.Transfer
	Positions []geom.Vec
}

// fdef resolves an optional float field: 0 (the Go zero value) selects
// def, a negative value selects exactly 0, and any positive value is
// kept. Fields that must stay positive reject the resulting 0 in
// Config.validate.
func fdef(v, def float64) float64 {
	//lint:ignore floateq zero is the documented unset-field sentinel
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

func (c Config) withDefaults() Config {
	c.RTX = fdef(c.RTX, 100)
	c.Degree = fdef(c.Degree, 9)
	c.Mu = fdef(c.Mu, 10)
	c.ScanInterval = fdef(c.ScanInterval, math.Min(1, 0.1*c.RTX/c.Mu))
	c.Duration = fdef(c.Duration, 300)
	c.Warmup = fdef(c.Warmup, 60)
	if c.Mobility == "" {
		c.Mobility = MobilityWaypoint
	}
	if c.Link == "" {
		c.Link = LinkUnitDisk
	}
	c.PathLossExp = fdef(c.PathLossExp, 3)
	c.ShadowSigma = fdef(c.ShadowSigma, 4)
	c.LinkMargin = fdef(c.LinkMargin, 3)
	if c.HopModel == "" {
		c.HopModel = HopEuclidean
	}
	c.Detour = fdef(c.Detour, 1.3)
	if c.Hash == nil {
		c.Hash = lm.Rendezvous{}
	}
	if c.HopPairs == 0 {
		c.HopPairs = 64
	}
	if c.TopArity == 0 {
		c.TopArity = 12
	}
	c.MeanDowntime = fdef(c.MeanDowntime, 30)
	return c
}

// validate checks a defaulted config, rejecting explicit zeros (the
// negative sentinel) on fields that must be positive.
func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("simnet: N = %d too small", c.N)
	}
	if c.RTX <= 0 {
		return fmt.Errorf("simnet: RTX must be positive (got %v)", c.RTX)
	}
	if c.Degree <= 0 {
		return fmt.Errorf("simnet: Degree must be positive (got %v)", c.Degree)
	}
	if c.ScanInterval <= 0 {
		return fmt.Errorf("simnet: ScanInterval must be positive (got %v)", c.ScanInterval)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("simnet: Duration must be positive (got %v)", c.Duration)
	}
	if c.Mu <= 0 && c.Mobility != MobilityStatic {
		return fmt.Errorf("simnet: Mu must be positive for mobility %q (got %v)", c.Mobility, c.Mu)
	}
	if c.Detour <= 0 && c.HopModel == HopEuclidean {
		return fmt.Errorf("simnet: Detour must be positive (got %v)", c.Detour)
	}
	if c.ChurnRate > 0 && c.MeanDowntime <= 0 {
		return fmt.Errorf("simnet: MeanDowntime must be positive with churn (got %v)", c.MeanDowntime)
	}
	if c.IntraTickParallelism < 0 {
		return fmt.Errorf("simnet: IntraTickParallelism must be >= 0 (got %d)", c.IntraTickParallelism)
	}
	if _, ok := mobilityRegistry[c.Mobility]; !ok {
		return fmt.Errorf("simnet: unknown mobility model %q (want one of %v)", c.Mobility, mobilityNames)
	}
	if _, ok := linkRegistry[c.Link]; !ok {
		return fmt.Errorf("simnet: unknown link model %q (want one of %v)", c.Link, linkNames)
	}
	if c.PathLossExp <= 0 {
		return fmt.Errorf("simnet: PathLossExp must be positive (got %v)", c.PathLossExp)
	}
	if _, err := invariant.ParseLevel(c.CheckLevel); err != nil {
		return fmt.Errorf("simnet: %v", err)
	}
	switch c.Fault {
	case "", FaultHandoffMisroute:
	default:
		return fmt.Errorf("simnet: unknown fault %q", c.Fault)
	}
	return nil
}

// Region returns the deployment disc this configuration implies (after
// defaults): sized so the target mean degree holds at the given N.
func (c Config) Region() geom.Disc {
	c = c.withDefaults()
	density := c.Degree / (math.Pi * c.RTX * c.RTX)
	return geom.DiscForDensity(c.N, density)
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lp, err := setupRun(cfg)
	if err != nil {
		return nil, err
	}
	defer lp.close()

	engine := sim.NewEngine()
	horizon := cfg.Warmup + cfg.Duration
	engine.Ticker(cfg.ScanInterval, cfg.ScanInterval, "scan", func(e *sim.Engine) {
		lp.step(e.Now())
	})
	engine.RunUntil(horizon)

	return lp.st.results(cfg)
}

// setupRun builds the initial snapshot and the tick loop for an
// already-defaulted, validated config. Split from Run so tests can
// drive single steps (TestSteadyStateTickAllocs).
func setupRun(cfg Config) (*looper, error) {
	// Each run owns its election hysteresis: a stateful elector shared
	// through a config template (a sweep's Base) would otherwise carry
	// grace timers from one run into the next, or be written by
	// concurrent runs at once.
	if ce, ok := cfg.Elector.(cluster.CloneableElector); ok {
		cfg.Elector = ce.CloneElector()
	}
	root := rng.NewRoot(cfg.Seed)
	density := cfg.Degree / (math.Pi * cfg.RTX * cfg.RTX)
	region := geom.DiscForDensity(cfg.N, density)

	// Both registries were validated before setupRun.
	model := mobilityRegistry[cfg.Mobility](cfg, region, root.Stream("mobility"))
	link := linkRegistry[cfg.Link](cfg, root)

	pos := model.Init(cfg.N)
	grid := spatial.NewGridForDisc(region, cfg.RTX, cfg.N)
	for i, p := range pos {
		grid.Insert(i, p)
	}
	nodes := make([]int, cfg.N)
	for i := range nodes {
		nodes[i] = i
	}

	clusterCfg := cluster.Config{MaxLevels: cfg.MaxLevels, Elector: cfg.Elector}
	if cfg.TopArity > 0 {
		clusterCfg.ForceTopAt = cfg.TopArity
	}
	if _, stateful := cfg.Elector.(cluster.StatefulElector); stateful {
		// Grace-period electors transiently detach members from heads;
		// disable the reach invariant.
		clusterCfg.Reach = -1
	}
	selector := lm.NewSelector(cfg.Hash)

	// The paper's analysis assumes a connected network (§1.2). The
	// clustered hierarchy and LM therefore cover the giant component;
	// stragglers outside it re-register when they rejoin (counted as
	// registration overhead, not handoff). The setup build is serial
	// (nil pool) — serial and sharded builds are byte-identical, so the
	// choice is unobservable.
	graph := link.BuildInto(nil, cfg.N, pos, grid, nil, nil)
	tracker := cluster.NewIdentityTracker()
	tracker.Passthrough = cfg.NaiveNaming
	mnt := cluster.NewOracleMaintainer(clusterCfg, tracker)
	hier, idents := mnt.Maintain(&cluster.MaintainInput{
		G0: graph, Nodes: topology.GiantComponent(graph, nodes), Now: 0,
	})
	table := selector.BuildTable(hier, idents)

	var hop topology.HopModel
	var bfsHop *topology.BFSHops
	switch cfg.HopModel {
	case HopEuclidean:
		hop = topology.NewEuclideanHops(pos, cfg.RTX, cfg.Detour)
	case HopBFS:
		fallback := int(2*region.R/cfg.RTX) + 2
		bfsHop = topology.NewBFSHops(graph, fallback)
		hop = bfsHop
	default:
		return nil, fmt.Errorf("simnet: unknown hop model %q", cfg.HopModel)
	}
	accountant := lm.NewAccountant(hop)

	// One worker pool serves every parallel phase of the run; it is
	// released by looper.close. 0 or 1 workers keep every phase on the
	// serial code path.
	var pool *par.Pool
	if cfg.IntraTickParallelism > 1 {
		pool = par.NewPool(cfg.IntraTickParallelism)
	}

	st := newStateRun(cfg, region)
	st.bindPool(pool)
	st.observe(hier)

	// Invariant checker (Config.CheckLevel). The level was validated
	// before setupRun, so the parse cannot fail here.
	checkLevel, _ := invariant.ParseLevel(cfg.CheckLevel)
	checker := invariant.New(checkLevel, cfg.Metrics, cfg.OnViolation)

	alive := make([]bool, cfg.N)
	for i := range alive {
		alive[i] = true
	}

	lp := &looper{
		pool:       pool,
		checker:    checker,
		tm:         newPhaseTimers(cfg.Metrics),
		cfg:        cfg,
		model:      model,
		link:       link,
		grid:       grid,
		pos:        pos,
		selector:   selector,
		accountant: accountant,
		bfsHop:     bfsHop,
		st:         st,
		graph:      graph,
		hier:       hier,
		idents:     idents,
		table:      table,
		mnt:        mnt,
		alive:      alive,
		reviveAt:   make([]float64, cfg.N),
		churnSrc:   root.Stream("churn"),
		aliveNodes: make([]int, 0, cfg.N),
	}

	// Audit the setup snapshot too (tick 0, no prev/diff): a run must
	// not start from a corrupt structure. Only every-tick mode fires
	// here — Sampled starts at tick 1.
	if checker.ShouldCheck(0) {
		checker.CheckTick(&invariant.Snapshot{
			Tick: 0, Time: 0, Seed: cfg.Seed,
			Next:     &invariant.State{Hier: hier, IDs: idents, Table: table},
			Selector: selector,
		})
	}
	return lp, nil
}
