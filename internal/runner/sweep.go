// Package runner drives the experiment harness: multi-seed parameter
// sweeps executed on a bounded worker pool, aggregation of per-cell
// results, text-table rendering, and the experiment registry that maps
// the paper's figures and claims (E1–E15, ablations A1–A3; see
// DESIGN.md §4) to runnable code.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// SweepSpec describes a (N × seed) sweep of simulations.
type SweepSpec struct {
	Ns    []int
	Seeds int
	// Base is the configuration template; N and Seed are overwritten
	// per cell. Base.Metrics, when set, also receives the sweep-level
	// metrics (per-cell wall time, cells ok/failed).
	Base simnet.Config
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// SeedBase offsets the seeds so different experiments decorrelate.
	SeedBase uint64
	// Progress, when non-nil, receives one line per completed cell:
	// cells finished/failed, the cell's wall time, and an ETA.
	Progress io.Writer
}

// CellResult is one simulation outcome within a sweep.
type CellResult struct {
	N    int
	Seed uint64
	R    *simnet.Results
	Err  error
}

// Sweep runs every (N, seed) cell on a worker pool and returns results
// in deterministic (N-major, seed-minor) order regardless of
// completion order. A panic inside one cell is captured into that
// cell's Err (as a *par.PanicError with the worker's stack) instead of
// tearing down the whole sweep. Each cell runs serially; at most
// min(Parallelism, cells) cells run at once.
func Sweep(spec SweepSpec) []CellResult {
	cores := spec.Parallelism
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	type job struct {
		idx  int
		n    int
		seed uint64
	}
	// Seeds derive from the cell index, not from (N, s): deriving from N
	// gave duplicate entries in Ns byte-identical runs, silently halving
	// the effective sample size of such sweeps.
	var jobs []job
	for _, n := range spec.Ns {
		for s := 0; s < spec.Seeds; s++ {
			idx := len(jobs)
			jobs = append(jobs, job{idx: idx, n: n, seed: spec.SeedBase + uint64(idx)*1000003})
		}
	}
	prog := obs.NewProgress(spec.Progress, len(jobs), spec.Base.Metrics)
	out := make([]CellResult, len(jobs))
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < min(cores, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				cfg := spec.Base
				cfg.N = j.n
				cfg.Seed = j.seed
				out[j.idx] = runCell(cfg, j.n, j.seed, prog)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return out
}

// errCellTerminated marks a cell whose goroutine exited without
// completing — a runtime.Goexit mid-run (e.g. a test helper calling
// FailNow from an Observer). par.Recover cannot intercept Goexit, so
// the deferred accounting reports this sentinel instead of success.
var errCellTerminated = fmt.Errorf("runner: cell goroutine terminated before completion")

// runCell executes one sweep cell on a dedicated goroutine so that
// nothing a cell does can kill the shared worker: a panic is captured
// by par.Recover into Err, and a runtime.Goexit (which unwinds past
// Recover) still runs the deferred cell accounting — counted failed,
// with errCellTerminated recorded — and still returns to the worker
// loop. Without the extra goroutine a Goexit would take the worker
// down with the cell's progress never reported, deadlocking Sweep's
// unbuffered job send once every worker died that way.
func runCell(cfg simnet.Config, n int, seed uint64, prog *obs.Progress) CellResult {
	res := CellResult{N: n, Seed: seed}
	done := make(chan struct{})
	go func() {
		defer close(done) // registered first so it runs after the cell accounting
		cell := prog.CellStart(n, seed)
		res.Err = errCellTerminated // overwritten on normal completion
		defer func() { cell.Done(res.Err) }()
		var r *simnet.Results
		var err error
		if perr := par.Recover(func() { r, err = simnet.Run(cfg) }); perr != nil {
			r, err = nil, perr
		}
		res.R, res.Err = r, err
	}()
	<-done
	return res
}

// AggRow aggregates all seeds of one N.
type AggRow struct {
	N          int
	Phi        stats.Welford
	Gamma      stats.Welford
	Total      stats.Welford
	F0         stats.Welford
	MeanLevels stats.Welford
	Giant      stats.Welford

	PhiByLevel    []stats.Welford
	GammaByLevel  []stats.Welford
	FMigByLevel   []stats.Welford
	GPrimeByLevel []stats.Welford
	HopByLevel    []stats.Welford
	NodesByLevel  []stats.Welford
	EdgesByLevel  []stats.Welford
}

func addAt(ws *[]stats.Welford, k int, v float64) {
	for len(*ws) <= k {
		*ws = append(*ws, stats.Welford{})
	}
	(*ws)[k].Add(v)
}

// Aggregate groups cells by N (in first-seen order) and averages.
// Cells with errors are returned in errs.
func Aggregate(cells []CellResult) (rows []*AggRow, errs []error) {
	byN := map[int]*AggRow{}
	var order []int
	for _, c := range cells {
		if c.Err != nil {
			errs = append(errs, fmt.Errorf("N=%d seed=%d: %w", c.N, c.Seed, c.Err))
			continue
		}
		row := byN[c.N]
		if row == nil {
			row = &AggRow{N: c.N}
			byN[c.N] = row
			order = append(order, c.N)
		}
		r := c.R
		row.Phi.Add(r.PhiRate)
		row.Gamma.Add(r.GammaRate)
		row.Total.Add(r.TotalRate())
		row.F0.Add(r.F0)
		row.MeanLevels.Add(r.MeanLevels)
		row.Giant.Add(r.GiantFraction)
		// Each per-level slice is iterated by its own length: a seed
		// whose hierarchy is one level shallower (or a Results built by
		// other tooling) may carry slices of unequal lengths, and
		// indexing them all by one range used to panic.
		for k, v := range r.PhiRateByLevel {
			addAt(&row.PhiByLevel, k, v)
		}
		for k, v := range r.GammaRateByLevel {
			addAt(&row.GammaByLevel, k, v)
		}
		for k, v := range r.FMigByLevel {
			addAt(&row.FMigByLevel, k, v)
		}
		for k, v := range r.GPrimeByLevel {
			addAt(&row.GPrimeByLevel, k, v)
		}
		for k, v := range r.NodesByLevel {
			addAt(&row.NodesByLevel, k, v)
		}
		for k, v := range r.EdgesByLevel {
			addAt(&row.EdgesByLevel, k, v)
		}
		for k, v := range r.HopMeanByLevel {
			if v > 0 {
				addAt(&row.HopByLevel, k, v)
			}
		}
	}
	for _, n := range order {
		rows = append(rows, byN[n])
	}
	return rows, errs
}

// Series extracts (N, value) pairs from aggregated rows for fitting.
func Series(rows []*AggRow, get func(*AggRow) float64) (ns, ys []float64) {
	for _, r := range rows {
		ns = append(ns, float64(r.N))
		ys = append(ys, get(r))
	}
	return
}
