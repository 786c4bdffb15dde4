// Command lmsim runs one configured simulation of hierarchical
// location management and prints the measured handoff overhead.
//
// Usage:
//
//	lmsim -n 512 -duration 300 -seed 1
//	lmsim -n 256 -mobility direction -elector sticky -json
//	lmsim -n 128 -trace run.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	manet "repro"
	"repro/internal/cluster"
	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// chainProgress wraps an Observer (possibly nil) so each decile of
// simulated time is reported once on stderr. It keys off the event's
// simulated clock, not wall time, so it needs no timers and cannot
// perturb the run.
func chainProgress(next func(simnet.ObsEvent), total float64) func(simnet.ObsEvent) {
	lastDecile := -1
	return func(ev simnet.ObsEvent) {
		if total > 0 {
			if d := int(ev.Time / total * 10); d > lastDecile {
				lastDecile = d
				pct := d * 10
				if pct > 100 {
					pct = 100
				}
				fmt.Fprintf(os.Stderr, "lmsim: t=%.0fs/%.0fs (%d%%)\n", ev.Time, total, pct)
			}
		}
		if next != nil {
			next(ev)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lmsim: ")

	var (
		n        = flag.Int("n", 256, "node count")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		duration = flag.Float64("duration", 300, "measured sim seconds")
		warmup   = flag.Float64("warmup", 60, "warmup seconds (discarded)")
		mu       = flag.Float64("mu", 10, "node speed, m/s")
		rtx      = flag.Float64("rtx", 100, "transmission radius, m")
		degree   = flag.Float64("degree", 9, "target mean node degree")
		scan     = flag.Float64("scan", 0, "link scan interval, s (0 = auto)")
		mob      = flag.String("mobility", "waypoint", "mobility model: waypoint|direction|static|group|gauss-markov|manhattan|hotspot")
		link     = flag.String("link", "unitdisk", "link model: unitdisk|logshadow")
		plExp    = flag.Float64("pathloss-exp", 0, "logshadow path-loss exponent η (0 = default 3)")
		shSigma  = flag.Float64("shadow-sigma", 0, "logshadow shadowing std dev, dB (0 = default 4; negative = none)")
		linkMarg = flag.Float64("link-margin", 0, "logshadow make/break hysteresis margin, dB (0 = default 3; negative = none)")
		maint    = flag.String("maintainer", "oracle", "hierarchy maintenance: oracle (full rebuild) | incremental (delta-patched)")
		groupSz  = flag.Int("group-size", 16, "RPGM nodes per group (mobility=group)")
		groupRad = flag.Float64("group-radius", 0, "RPGM wander radius, m (0 = 2*rtx)")
		churn    = flag.Float64("churn", 0, "node deaths per node per hour (E18 extension)")
		hopM     = flag.String("hops", "euclid", "hop cost model: euclid|bfs")
		elector  = flag.String("elector", "lca", "clusterhead election: lca|sticky|debounced|stabilized")
		grace    = flag.Float64("grace", 10, "debounced elector grace period, s")
		hash     = flag.String("hash", "rendezvous", "CHLM hash family: rendezvous|successor")
		topArity = flag.Int("toparity", 0, "forced-top cap (0 = default 12, -1 = uncapped)")
		naive    = flag.Bool("naive-naming", false, "key LM on raw head IDs (no identity continuity)")
		states   = flag.Bool("states", false, "track ALCA state statistics")
		classes  = flag.Bool("classes", false, "classify reorg triggers i-vii")
		traceOut = flag.String("trace", "", "write per-tick JSONL trace to file")
		jsonOut  = flag.Bool("json", false, "emit results as JSON")
		manifest = flag.String("manifest", "", "write a run manifest (config, seed, per-phase timings) to this JSON file")
		progress = flag.Bool("progress", false, "report simulated-time progress on stderr")
		invarLvl = flag.String("invariants", "off", "runtime invariant checks: off|sampled|every-tick (violations abort with tick, seed, and state dump)")
	)
	flag.Parse()

	cfg := manet.Config{
		N: *n, Seed: *seed,
		Duration: *duration, Warmup: *warmup,
		Mu: *mu, RTX: *rtx, Degree: *degree, ScanInterval: *scan,
		Mobility: *mob, Link: *link, HopModel: *hopM,
		PathLossExp: *plExp, ShadowSigma: *shSigma, LinkMargin: *linkMarg,
		TrackStates: *states, TrackClasses: *classes,
	}
	cfg.TopArity = *topArity
	cfg.NaiveNaming = *naive
	cfg.GroupSize = *groupSz
	cfg.GroupRadius = *groupRad
	cfg.ChurnRate = *churn / 3600
	cfg.CheckLevel = *invarLvl
	cfg.Maintainer = *maint
	switch *elector {
	case "lca":
	case "sticky":
		cfg.Elector = cluster.StickyLCA{}
	case "debounced":
		cfg.Elector = &cluster.DebouncedLCA{Grace: *grace, LevelScale: 1.9}
	case "stabilized":
		cfg = manet.Stabilized(cfg)
	default:
		log.Fatalf("unknown elector %q", *elector)
	}
	switch *hash {
	case "rendezvous":
	case "successor":
		cfg.Hash = lm.Successor{IDSpace: *n}
	default:
		log.Fatalf("unknown hash %q", *hash)
	}

	var tracer *trace.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tracer = trace.New(f)
		cfg.Observer = tracer.Observer()
	}

	var man *obs.Manifest
	if *manifest != "" {
		man = obs.NewManifest("lmsim")
		man.Seed = *seed
		man.Config = map[string]any{
			"n": *n, "duration_s": *duration, "warmup_s": *warmup,
			"mu": *mu, "rtx": *rtx, "degree": *degree, "scan": *scan,
			"mobility": *mob, "link": *link, "hops": *hopM, "elector": *elector,
			"hash": *hash, "churn_per_hour": *churn,
			"invariants": *invarLvl, "maintainer": *maint,
		}
		cfg.Metrics = obs.NewRegistry()
	}
	if *progress {
		cfg.Observer = chainProgress(cfg.Observer, *warmup+*duration)
	}

	r, err := manet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d records -> %s\n", tracer.Records(), *traceOut)
	}
	if man != nil {
		man.Finish(cfg.Metrics)
		if err := man.WriteFile(*manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "manifest -> %s\n", *manifest)
	}

	if *jsonOut {
		out := map[string]any{
			"n":              r.Config.N,
			"seed":           r.Config.Seed,
			"duration_s":     r.Duration,
			"phi_rate":       r.PhiRate,
			"gamma_rate":     r.GammaRate,
			"total_rate":     r.TotalRate(),
			"f0":             r.F0,
			"mean_levels":    r.MeanLevels,
			"giant_fraction": r.GiantFraction,
			"phi_by_level":   r.PhiRateByLevel,
			"gamma_by_level": r.GammaRateByLevel,
			"fmig_by_level":  r.FMigByLevel,
			"nodes_by_level": r.NodesByLevel,
			"edges_by_level": r.EdgesByLevel,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(r.Summary())
	if *states {
		frac, total := r.States.UnitTransitionFraction()
		fmt.Printf("ALCA states: %d transitions, unit fraction %.3f\n", total, frac)
		for _, m := range r.States.Levels() {
			p, obs := r.States.P1(m)
			fmt.Printf("  level-%d nodes: P(state=1)=%.3f mean=%.2f (%d obs)\n",
				m, p, r.States.MeanState(m), obs)
		}
	}
}
