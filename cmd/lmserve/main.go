// Command lmserve runs the online location-service runtime: a live
// simulation of hierarchical location management serving a concurrent
// synthetic client population, reporting throughput, query/update
// latency quantiles, and handoff-induced unavailability.
//
// Usage:
//
//	lmserve -n 256 -duration 30 -rate 5000
//	lmserve -n 1024 -rate 20000 -shards 8 -json
//	lmserve -n 512 -manifest serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lmserve: ")

	var (
		n        = flag.Int("n", 256, "node count")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		duration = flag.Float64("duration", 60, "measured sim seconds")
		warmup   = flag.Float64("warmup", 10, "warmup seconds (discarded)")
		mu       = flag.Float64("mu", 10, "node speed, m/s")
		rtx      = flag.Float64("rtx", 100, "transmission radius, m")
		degree   = flag.Float64("degree", 9, "target mean node degree")
		scan     = flag.Float64("scan", 0, "link scan interval, s (0 = auto)")
		mob      = flag.String("mobility", "waypoint", "mobility model: waypoint|direction|static|group|gauss-markov|manhattan|hotspot")
		link     = flag.String("link", "unitdisk", "link model: unitdisk|logshadow")

		rate    = flag.Float64("rate", 1000, "request arrival rate per wall second")
		queryFr = flag.Float64("query-fraction", 0.8, "fraction of requests that are queries (rest are updates)")
		shards  = flag.Int("shards", 4, "request queue/worker shards")
		depth   = flag.Int("queue-depth", 1024, "per-shard queue bound (full queue sheds)")
		batch   = flag.Int("batch", 64, "max requests drained per lock acquisition")
		pace    = flag.Float64("pace", 0.005, "wall seconds of serving per simulation tick (negative = none)")
		window  = flag.Float64("unavail-window", 0.002, "mid-handoff unavailability window, wall seconds (negative = off)")
		srvSeed = flag.Uint64("serve-seed", 1, "serving-side rng seed (arrivals, pair picks)")

		jsonOut  = flag.Bool("json", false, "emit results as JSON")
		manifest = flag.String("manifest", "", "write a run manifest (config, seed, serve metrics) to this JSON file")
	)
	flag.Parse()

	simCfg := simnet.Config{
		N: *n, Seed: *seed,
		Duration: *duration, Warmup: *warmup,
		Mu: *mu, RTX: *rtx, Degree: *degree, ScanInterval: *scan,
		Mobility: *mob, Link: *link,
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Sim:           simCfg,
		Rate:          *rate,
		QueryFraction: *queryFr,
		Shards:        *shards,
		QueueDepth:    *depth,
		Batch:         *batch,
		Pace:          *pace,
		UnavailWindow: *window,
		Seed:          *srvSeed,
		Metrics:       reg,
	}

	var man *obs.Manifest
	if *manifest != "" {
		man = obs.NewManifest("lmserve")
		man.Seed = *srvSeed
		man.Config = map[string]any{
			"n": *n, "sim_seed": *seed, "duration_s": *duration,
			"warmup_s": *warmup, "mu": *mu, "rtx": *rtx,
			"mobility": *mob, "link": *link,
			"rate": *rate, "query_fraction": *queryFr,
			"shards": *shards, "queue_depth": *depth, "batch": *batch,
			"pace_s": *pace, "unavail_window_s": *window,
		}
	}

	res, err := serve.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if man != nil {
		man.Finish(reg)
		if err := man.WriteFile(*manifest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "manifest -> %s\n", *manifest)
	}

	if *jsonOut {
		// Shadow the embedded sim Config: it carries funcs (Observer)
		// and interfaces that do not marshal. The stand-in must be
		// untagged — only a same-JSON-name field shadows the promoted
		// one; `json:"-"` or a renaming tag would leave it visible.
		out := struct {
			*serve.Results
			Sim struct {
				*simnet.Results
				Config struct{}
			} `json:"sim"`
		}{Results: res}
		out.Sim.Results = res.Sim
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("served %d/%d requests (%d queries, %d updates) in %.1fs wall, %d sim ticks\n",
		res.Queries+res.Updates, res.Requests, res.Queries, res.Updates,
		res.WallSeconds, res.Ticks)
	fmt.Printf("throughput: %.0f qps  shed: %d  misroutes: %d  retries: %d\n",
		res.QPS, res.Shed, res.Misroutes, res.Retries)
	q := res.QueryLatency
	fmt.Printf("query latency: p50 %s  p90 %s  p99 %s  max %s (%d samples)\n",
		fmtLat(q.P50Seconds), fmtLat(q.P90Seconds), fmtLat(q.P99Seconds),
		fmtLat(q.MaxSeconds), q.Count)
	u := res.UpdateLatency
	fmt.Printf("update latency: p50 %s  p90 %s  p99 %s  max %s (%d samples)\n",
		fmtLat(u.P50Seconds), fmtLat(u.P90Seconds), fmtLat(u.P99Seconds),
		fmtLat(u.MaxSeconds), u.Count)
	fmt.Printf("unavailability: %d handoff windows, %.3fs total\n",
		res.UnavailWindows, res.UnavailSeconds)
	fmt.Printf("sim: phi %.3f gamma %.3f pkt/node/s, %.1f mean levels\n",
		res.Sim.PhiRate, res.Sim.GammaRate, res.Sim.MeanLevels)
}

// fmtLat renders a latency in the most readable unit.
func fmtLat(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
