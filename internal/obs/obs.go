// Package obs is the run-observability layer of the harness: a
// lightweight metrics registry (counters, gauges, phase timers), a
// machine-readable run manifest, and sweep progress reporting.
//
// Everything in this package is purely observational. Metrics never
// feed back into simulation state or randomness, so a run with a
// registry attached produces byte-identical Results and traces to the
// same run without one (TestMetricsDoNotPerturbResults enforces this
// end to end). The package is also the only place outside dedicated
// wall-clock helpers that may import "time": simulation packages are
// barred from it by manetlint, and they interact with wall time only
// through the nil-safe Timer/Span API here.
//
// Nil-safety contract: every method on *Registry, *Counter, *Gauge,
// *Timer, Span, *Progress, and Cell is a no-op (or zero) on a nil
// receiver, so instrumented code needs no "is observability on?"
// branches — a nil registry costs a few predictable nil checks per
// tick and nothing else.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Phase names instrumented inside one simnet scan tick. PhaseTick
// brackets the whole tick; the others are disjoint sub-spans of it, so
// their totals sum to at most (and in practice almost exactly) the
// PhaseTick total.
const (
	PhaseTick      = "tick.total"
	PhaseAdvance   = "tick.advance" // mobility, churn, spatial grid update
	PhaseRebuild   = "tick.rebuild" // unit-disk graph rebuild
	PhaseCluster   = "tick.cluster" // hierarchy (re)construction
	PhaseDiff      = "tick.diff"    // hierarchy diffing
	PhaseLMUpdate  = "tick.lm_update"
	PhaseMeasure   = "tick.measure" // handoff accounting and classifiers
	PhaseHops      = "tick.hops"    // intra-cluster hop sampling (BFS)
	PhaseInvariant = "tick.invariant"
	PhaseObserver  = "tick.observer"
)

// Sweep-level metric names recorded by runner.Sweep through Progress.
const (
	SweepCell        = "sweep.cell" // per-cell wall time
	SweepCellsOK     = "sweep.cells_ok"
	SweepCellsFailed = "sweep.cells_failed"
)

// Invariant-checker metric names recorded by internal/invariant.
const (
	InvariantTicksChecked = "invariant.ticks_checked"
	InvariantViolations   = "invariant.violations"
)

// Counter is a monotonically accumulating integer metric. Safe for
// concurrent use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric. Safe for concurrent use;
// all methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set records v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry names and owns a run's metrics. Lookup methods create the
// metric on first use; the returned pointers are stable, so hot paths
// resolve them once and then update lock-free. A nil *Registry is
// valid and hands out nil metrics, which no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named phase timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// PhaseStat is the exported state of one phase timer.
type PhaseStat struct {
	Count      int64   `json:"count"`
	Seconds    float64 `json:"seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// Snapshot is a point-in-time copy of a registry's metrics, with
// deterministic (sorted-key) JSON encoding.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Phases   map[string]PhaseStat `json:"phases,omitempty"`
	Hists    map[string]HistStat  `json:"hists,omitempty"`
}

// Snapshot copies the registry's current values. A nil registry yields
// the zero Snapshot. encoding/json marshals maps with sorted keys, so
// the encoded form is deterministic.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		//lint:ignore maprange map-to-map copy; the result is order-free
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		//lint:ignore maprange map-to-map copy; the result is order-free
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Phases = make(map[string]PhaseStat, len(r.timers))
		//lint:ignore maprange map-to-map copy; the result is order-free
		for name, t := range r.timers {
			s.Phases[name] = PhaseStat{
				Count:      t.Count(),
				Seconds:    t.Seconds(),
				MaxSeconds: t.MaxSeconds(),
			}
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistStat, len(r.hists))
		//lint:ignore maprange map-to-map copy; the result is order-free
		for name, h := range r.hists {
			s.Hists[name] = h.Stat()
		}
	}
	return s
}

// PhaseNames returns the snapshot's phase names, sorted.
func (s Snapshot) PhaseNames() []string {
	var names []string
	for name := range s.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
