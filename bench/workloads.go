package main

import (
	"repro/internal/serve"
	"repro/internal/simnet"
)

// workload is one scenario the benchmark runs. Workloads fix only the
// scenario (N, scan interval, mobility, link model, churn, request
// rate); they leave Engine, Maintainer and IntraTickParallelism at
// their defaults, so a change that selects or deletes one of those
// paths is measured on unchanged inputs.
//
// A run measures many short realizations of its workload, each drawn
// from its own seed, rather than one long one: a realization's cost
// depends on its random network, and only averaging over several
// networks makes a run's figures steady from one --seed to the next.
type workload struct {
	name string
	sim  simnet.Config
	// serve is set for the serving workload; its Sim equals sim.
	serve *serve.Config
}

// withSeed returns w with every input drawn from seed.
func (w workload) withSeed(seed uint64) workload {
	w.sim.Seed = seed
	if w.serve != nil {
		s := *w.serve
		s.Sim, s.Seed = w.sim, seed
		w.serve = &s
	}
	return w
}

// realization returns the r-th realization of a run with the given
// --seed: its inputs come from seed 1000·seed + r.
func (w workload) realization(seed uint64, r int) workload {
	return w.withSeed(1000*seed + uint64(r))
}

// horizon is the simulated time one realization covers, warm-up
// included.
func (w workload) horizon() float64 { return w.sim.Warmup + w.sim.Duration }

// workloads returns the benchmark's workloads, with seed 0. The shares
// of a tick quoted below are the traced run's layer times over the
// simulator's Step time.
func workloads() []workload {
	srv := serve.Config{
		Sim:    simnet.Config{N: 512, Warmup: 10, Duration: 100},
		Rate:   50000,
		Shards: 2,
	}
	return []workload{
		// The paper's configuration (auto interval = 1 s). The LM table
		// update is 55% of a tick, cluster maintenance 16%, link
		// rebuild 8%.
		{name: "paper-1s", sim: simnet.Config{N: 2048, Warmup: 10, Duration: 100}},
		// Fine scans: little churn per tick, so the oracle cluster
		// rebuild rises to 28% and the LM update drops to 36% — the
		// regime where incremental maintenance should win.
		{name: "fine-0.1s", sim: simnet.Config{N: 1024, ScanInterval: 0.1, Warmup: 2, Duration: 20}},
		// Link rebuild is 37% (log-shadowing widens the candidate
		// radius); deaths and births add LM re-registrations and grid
		// removals beside handoffs.
		{name: "lossy-churn", sim: simnet.Config{
			N: 1024, Warmup: 20, Duration: 100,
			Mobility: simnet.MobilityGaussMarkov, Link: simnet.LinkLogShadow,
			ChurnRate: 60.0 / 3600,
		}},
		// The only workload with a client waiting: queries wait behind
		// the tick's write lock, behind each other and across handoff
		// windows, so tick and query cost show as latency. No request
		// is shed or forced at this rate.
		{name: "serve-50k", sim: srv.Sim, serve: &srv},
	}
}

// findWorkload returns the named workload, or false.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
