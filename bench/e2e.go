package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	//lint:ignore forbiddenimport the benchmark measures wall-clock time of the simulator from outside it
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// minReps is the fewest realizations a run measures, so that a median
// exists.
const minReps = 3

// memProbe reads heap statistics through runtime/metrics, which does
// not stop the world, into preallocated samples.
type memProbe struct {
	s    [2]metrics.Sample
	peak uint64
}

func newMemProbe() *memProbe {
	p := &memProbe{}
	p.s[0].Name = "/gc/heap/allocs:objects"
	p.s[1].Name = "/memory/classes/heap/objects:bytes"
	return p
}

// allocs returns the cumulative count of heap objects allocated.
func (p *memProbe) allocs() uint64 {
	metrics.Read(p.s[:1])
	return p.s[0].Value.Uint64()
}

// sampleHeap folds the current heap object bytes into the peak.
func (p *memProbe) sampleHeap() {
	metrics.Read(p.s[1:])
	p.peak = max(p.peak, p.s[1].Value.Uint64())
}

// rep is one realization's measurements.
type rep struct {
	setup  float64 // s
	wall   float64 // s, of the Step loop or of Serve
	ticks  int
	allocs uint64
	peak   uint64 // bytes
	digest string

	// Latency of the operation a user waits on, in µs: a post-warm-up
	// scan tick for simulations, a query for serving.
	p90, mean float64

	requests, failed int64 // serving: shed and forced requests fail
}

func runRep(w workload) (rep, error) {
	if w.serve != nil {
		return serveRep(*w.serve)
	}
	return simRep(w.sim)
}

// simRep runs one realization on a sequential Stepper.
func simRep(cfg simnet.Config) (rep, error) {
	runtime.GC()
	probe := newMemProbe()
	t0 := time.Now()
	st, err := simnet.NewStepper(cfg)
	setup := time.Since(t0)
	if err != nil {
		return rep{}, err
	}
	defer st.Close()
	c := st.Config()
	r := rep{setup: setup.Seconds()}
	// Room for every post-warm-up tick, so appends in the timed loop do
	// not allocate.
	tickUS := make([]float64, 0, int(math.Ceil(c.Duration/c.ScanInterval))+1)
	a0 := probe.allocs()
	start := time.Now()
	for {
		t := time.Now()
		ok := st.Step()
		d := time.Since(t)
		if !ok {
			break
		}
		r.ticks++
		if st.Now() > c.Warmup {
			tickUS = append(tickUS, float64(d.Nanoseconds())/1e3)
		}
		probe.sampleHeap()
	}
	r.wall = time.Since(start).Seconds()
	r.allocs = probe.allocs() - a0
	r.peak = probe.peak
	if r.p90, err = percentile(tickUS, 0.90); err != nil {
		return r, err
	}
	for _, t := range tickUS {
		r.mean += t
	}
	r.mean /= float64(len(tickUS))
	res, err := st.Results()
	if err != nil {
		return r, err
	}
	r.digest, err = digest(res)
	return r, err
}

// serveRep runs one realization of serve.New + Serve.
func serveRep(cfg serve.Config) (rep, error) {
	runtime.GC()
	probe := newMemProbe()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	// Serve calls the observer from its engine loop, which runs on this
	// goroutine, after every tick.
	cfg.Sim.Observer = func(simnet.ObsEvent) { probe.sampleHeap() }
	t0 := time.Now()
	srv, err := serve.New(cfg)
	setup := time.Since(t0)
	if err != nil {
		return rep{}, err
	}
	r := rep{setup: setup.Seconds()}
	a0 := probe.allocs()
	start := time.Now()
	res, err := srv.Serve()
	r.wall = time.Since(start).Seconds()
	if err != nil {
		return r, err
	}
	r.allocs = probe.allocs() - a0
	r.peak = probe.peak
	r.ticks = int(res.Ticks)
	r.requests = res.Requests
	r.failed = res.Shed + reg.Counter(serve.MetricForced).Value()
	h := reg.Hist(serve.MetricQueryLat)
	r.mean = h.Stat().MeanSeconds * 1e6
	if r.p90, err = histQuantile(h, 0.90); err != nil {
		return r, err
	}
	r.p90 *= 1e6
	r.digest, err = digest(res.Sim)
	return r, err
}

// reference runs w once at seed 1, unmeasured, and reports whether its
// Results match the stored digest. Every run starts with it: it checks
// the outputs against a fixed reference whatever --seed is, and warms
// the process up before anything is timed.
func reference(w workload) (bool, error) {
	want, err := storedDigest(w.name)
	if err != nil {
		return false, err
	}
	r, err := runRep(w.withSeed(1))
	if err != nil {
		return false, fmt.Errorf("%s reference: %w", w.name, err)
	}
	if r.digest != want {
		fmt.Fprintf(os.Stderr, "%s reference (seed 1): Results digest %s, want %s\n", w.name, r.digest, want)
		return false, nil
	}
	return true, nil
}

// measure runs the reference realization, then realizations of w for
// at least seconds, and at least minReps of them, and reports the
// end-to-end metrics. Allocations are pooled over realizations; every
// other metric is the median of the realizations' values, which one
// realization disturbed by the host barely moves.
func measure(w workload, seed uint64, seconds float64) (result, error) {
	ok, err := reference(w)
	if err != nil {
		return result{}, err
	}
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r, err := runRep(w.realization(seed, len(reps)))
		if err != nil {
			return result{}, fmt.Errorf("%s realization %d: %w", w.name, len(reps), err)
		}
		reps = append(reps, r)
	}

	col := func(f func(rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var allocs, ticks float64
	for _, r := range reps {
		allocs += float64(r.allocs)
		ticks += float64(r.ticks)
	}
	res := newResult(len(reps) + 1) // the reference is attempted too
	res.Correct = ok
	if !ok {
		res.Failed = 1
	}
	res.set("setup_s", col(func(r rep) float64 { return r.setup }))
	res.set("sim_us_per_simsec", col(func(r rep) float64 { return r.wall / w.horizon() * 1e6 }))
	res.set("latency_p90_us", col(func(r rep) float64 { return r.p90 }))
	res.set("latency_mean_us", col(func(r rep) float64 { return r.mean }))
	res.set("allocs_per_tick", allocs/ticks)
	res.set("peak_heap_mib", col(func(r rep) float64 { return float64(r.peak) / (1 << 20) }))
	if w.serve != nil {
		// Requests are the operations; a shed request was refused and a
		// forced one was answered from a row still mid-handoff.
		res.Attempted = 0
		for _, r := range reps {
			res.Attempted += int(r.requests)
			res.Failed += int(r.failed)
		}
	}
	return res, nil
}
