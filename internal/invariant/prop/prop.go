// Package prop is the property-based scenario harness over the
// runtime invariant checker: it generates random simulation
// configurations from fuzz-provided bytes, runs short simulations with
// every-tick invariant checks, differentially compares the serial,
// parallel, zero-alloc-reuse, and incremental-maintenance paths, and
// shrinks failing scenarios to a minimal (config, seed, tick) triple
// written as a regression corpus file (testdata/regress). FuzzScenario
// in fuzz_test.go is the Go-native fuzz target; `make fuzz` drives it
// locally and the nightly CI job gives it a five-minute budget.
package prop

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Elector names accepted by Scenario.Elector ("" = memoryless LCA).
const (
	ElectorSticky    = "sticky"
	ElectorDebounced = "debounced"
)

// Scenario is one generated simulation configuration — the JSON-stable
// subset of simnet.Config the fuzzer explores, plus the fault knob the
// seeded-bug tests use. The zero value of each field selects the
// simnet default.
type Scenario struct {
	Seed  uint64 `json:"seed"`
	N     int    `json:"n"`
	Ticks int    `json:"ticks"`

	Mobility string  `json:"mobility,omitempty"`
	Link     string  `json:"link,omitempty"`
	HopModel string  `json:"hop_model,omitempty"`
	Degree   float64 `json:"degree,omitempty"`
	Mu       float64 `json:"mu,omitempty"`

	ChurnRate    float64 `json:"churn_rate,omitempty"`
	MeanDowntime float64 `json:"mean_downtime,omitempty"`

	TopArity int    `json:"top_arity,omitempty"`
	Elector  string `json:"elector,omitempty"`

	TrackStates  bool `json:"track_states,omitempty"`
	TrackClasses bool `json:"track_classes,omitempty"`
	// Colocated collapses the deployment disc so every node hears
	// every other — the all-nodes-colocated degenerate topology.
	Colocated   bool `json:"colocated,omitempty"`
	NaiveNaming bool `json:"naive_naming,omitempty"`

	SampleHops int `json:"sample_hops,omitempty"`
	HopPairs   int `json:"hop_pairs,omitempty"`

	Fault string `json:"fault,omitempty"`
}

// FromParams decodes raw fuzz inputs into a Scenario. Every input
// maps to a valid-shaped scenario (modulo N=1, which exercises the
// config-rejection path), so the fuzzer's whole input space is
// meaningful.
func FromParams(seed uint64, n uint16, mobility, hop, degree, speed, churn, topArity, ticks, elector, flags, link uint8) Scenario {
	sc := Scenario{
		Seed:  seed,
		N:     1 + int(n)%96,
		Ticks: 4 + int(ticks)%40,
		Mobility: []string{
			simnet.MobilityWaypoint, simnet.MobilityDirection,
			simnet.MobilityStatic, simnet.MobilityGroup,
			simnet.MobilityGaussMarkov, simnet.MobilityManhattan,
			simnet.MobilityHotspot,
		}[int(mobility)%7],
		Link:     []string{"", simnet.LinkLogShadow}[int(link)%2],
		HopModel: []string{simnet.HopEuclidean, simnet.HopBFS}[int(hop)%2],
		Degree:   float64(3 + int(degree)%13),
		Mu:       float64(1 + int(speed)%30),
		TopArity: []int{0, -1, 4}[int(topArity)%3],
		Elector:  []string{"", ElectorSticky, ElectorDebounced}[int(elector)%3],
	}
	if int(churn)%4 == 1 {
		sc.ChurnRate, sc.MeanDowntime = 0.02, 5
	}
	if flags&1 != 0 {
		sc.TrackStates = true
	}
	if flags&2 != 0 {
		sc.TrackClasses = true
	}
	if flags&4 != 0 {
		sc.Colocated = true
	}
	if flags&8 != 0 {
		sc.NaiveNaming = true
	}
	if flags&16 != 0 {
		sc.SampleHops, sc.HopPairs = 2, 8
	}
	return sc
}

// Config translates the scenario into a runnable simnet.Config with
// every-tick invariant checks, a 1 s scan so Ticks counts scan ticks
// directly, and no warmup (every tick is measured and traced).
// maintainer selects the hierarchy-maintenance strategy ("" = oracle).
func (sc Scenario) Config(workers int, maintainer string) simnet.Config {
	cfg := simnet.Config{
		N:                    sc.N,
		Seed:                 sc.Seed,
		ScanInterval:         1,
		Duration:             float64(sc.Ticks),
		Warmup:               -1,
		Mobility:             sc.Mobility,
		Link:                 sc.Link,
		HopModel:             sc.HopModel,
		Degree:               sc.Degree,
		Mu:                   sc.Mu,
		ChurnRate:            sc.ChurnRate,
		MeanDowntime:         sc.MeanDowntime,
		TopArity:             sc.TopArity,
		TrackStates:          sc.TrackStates,
		TrackClasses:         sc.TrackClasses,
		NaiveNaming:          sc.NaiveNaming,
		SampleHops:           sc.SampleHops,
		HopPairs:             sc.HopPairs,
		Fault:                sc.Fault,
		CheckLevel:           invariant.LevelEveryTick,
		IntraTickParallelism: workers,
		Maintainer:           maintainer,
	}
	if sc.Colocated {
		// A degree target of 2N guarantees the density puts every
		// node inside every other's radius: the complete graph.
		cfg.Degree = float64(2*sc.N) + 2
	}
	switch sc.Elector {
	case ElectorSticky:
		cfg.Elector = cluster.StickyLCA{}
	case ElectorDebounced:
		cfg.Elector = &cluster.DebouncedLCA{Grace: 3, LevelScale: 1.9}
	}
	return cfg
}

// Failure kinds reported by CheckScenario.
const (
	KindPanic        = "panic"        // a path panicked mid-run
	KindViolation    = "violation"    // an invariant check fired
	KindDifferential = "differential" // serial vs parallel paths diverged
)

// Failure is a failing scenario with the minimal reproduction context:
// the scenario itself, what failed, and the earliest tick it failed
// at. WriteRepro persists it as a regression corpus file.
type Failure struct {
	Scenario Scenario `json:"scenario"`
	Kind     string   `json:"kind"`
	Check    string   `json:"check,omitempty"` // violated invariant (Kind == violation)
	Tick     int      `json:"tick,omitempty"`  // earliest failing tick, when known
	Detail   string   `json:"detail,omitempty"`
}

// Error implements error.
func (f *Failure) Error() string {
	data, _ := json.Marshal(f.Scenario)
	return fmt.Sprintf("prop: %s (check=%q tick=%d): %s\nscenario: %s",
		f.Kind, f.Check, f.Tick, f.Detail, data)
}

// maxViolations bounds the violations retained per run; one is enough
// to fail and the earliest is what the shrinker keys on.
const maxViolations = 32

// runResult is one simulation attempt's outcome.
type runResult struct {
	configErr  error
	panicErr   error
	violations []invariant.Violation
	res        []byte // Results JSON (Config stripped: funcs don't marshal)
	trace      []byte // per-tick trace stream
}

// runScenario executes the scenario on one path (workers = 0 serial,
// > 1 parallel; maintainer "" oracle or simnet.MaintainerIncremental)
// with every-tick checks, capturing violations, the serialized
// results, and the trace.
func runScenario(sc Scenario, workers int, maintainer string) runResult {
	var out runResult
	cfg := sc.Config(workers, maintainer)
	var buf bytes.Buffer
	tr := trace.New(&buf)
	cfg.Observer = tr.Observer()
	cfg.OnViolation = func(v invariant.Violation) {
		if len(out.violations) < maxViolations {
			out.violations = append(out.violations, v)
		}
	}
	var r *simnet.Results
	var err error
	if perr := par.Recover(func() { r, err = simnet.Run(cfg) }); perr != nil {
		out.panicErr = perr
		return out
	}
	if err != nil {
		out.configErr = err
		return out
	}
	if cerr := tr.Close(); cerr != nil {
		out.panicErr = fmt.Errorf("trace close: %w", cerr)
		return out
	}
	data, merr := json.Marshal(struct {
		*simnet.Results
		Config struct{}
	}{Results: r})
	if merr != nil {
		out.panicErr = fmt.Errorf("marshal results: %w", merr)
		return out
	}
	out.res = data
	out.trace = buf.Bytes()
	return out
}

// workerCounts are the parallel paths differentially compared against
// the serial run (the same counts TestParallelMatchesSerial pins).
var workerCounts = []int{2, 3}

// CheckScenario runs the scenario's property battery and returns the
// first failure, or nil:
//
//  1. the serial run must not panic;
//  2. if the config is rejected, every path must reject it with the
//     same error (a config-validation differential is still a bug);
//  3. every-tick invariant checks must stay silent on every path;
//  4. the parallel paths must produce byte-identical Results and
//     traces to the serial run (which also pins the zero-alloc reuse
//     path: every run after the first tick reuses retired storage);
//  5. the incremental maintainer must produce byte-identical Results
//     and traces to the oracle run, serial and parallel, with its own
//     every-tick checks (including the incremental-hierarchy-equal
//     oracle differential) silent.
func CheckScenario(sc Scenario) *Failure {
	serial := runScenario(sc, 0, "")
	if serial.panicErr != nil {
		return &Failure{Scenario: sc, Kind: KindPanic, Detail: serial.panicErr.Error()}
	}
	if serial.configErr != nil {
		p := runScenario(sc, workerCounts[0], "")
		if p.configErr == nil || p.configErr.Error() != serial.configErr.Error() {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Detail: fmt.Sprintf("serial rejects config (%v) but %d workers says: %v",
					serial.configErr, workerCounts[0], p.configErr),
			}
		}
		return nil // invalid config, consistently rejected everywhere
	}
	if len(serial.violations) > 0 {
		v := serial.violations[0]
		return &Failure{
			Scenario: sc, Kind: KindViolation,
			Check: v.Check, Tick: v.Tick, Detail: v.Detail,
		}
	}
	for _, w := range workerCounts {
		p := runScenario(sc, w, "")
		if p.panicErr != nil {
			return &Failure{
				Scenario: sc, Kind: KindPanic,
				Detail: fmt.Sprintf("%d workers: %v", w, p.panicErr),
			}
		}
		if p.configErr != nil {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Detail: fmt.Sprintf("serial accepts config but %d workers rejects it: %v", w, p.configErr),
			}
		}
		if len(p.violations) > 0 {
			v := p.violations[0]
			return &Failure{
				Scenario: sc, Kind: KindViolation,
				Check: v.Check, Tick: v.Tick,
				Detail: fmt.Sprintf("%d workers only: %s", w, v.Detail),
			}
		}
		if !bytes.Equal(serial.trace, p.trace) {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Tick:   diffTick(serial.trace, p.trace),
				Detail: fmt.Sprintf("trace diverges between serial and %d workers", w),
			}
		}
		if !bytes.Equal(serial.res, p.res) {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Detail: fmt.Sprintf("results diverge between serial and %d workers", w),
			}
		}
	}
	return checkIncremental(sc, serial)
}

// checkIncremental runs the maintainer differential: oracle vs
// incremental, serial and parallel, each incremental run carrying its
// own every-tick checks.
func checkIncremental(sc Scenario, serial runResult) *Failure {
	matrix := []struct {
		workers int
		label   string
	}{
		{0, "incremental serial"},
		{workerCounts[0], "incremental par"},
	}
	for _, m := range matrix {
		inc := runScenario(sc, m.workers, simnet.MaintainerIncremental)
		if inc.panicErr != nil {
			return &Failure{
				Scenario: sc, Kind: KindPanic,
				Detail: fmt.Sprintf("%s: %v", m.label, inc.panicErr),
			}
		}
		if inc.configErr != nil {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Detail: fmt.Sprintf("oracle accepts config but %s rejects it: %v", m.label, inc.configErr),
			}
		}
		if len(inc.violations) > 0 {
			v := inc.violations[0]
			return &Failure{
				Scenario: sc, Kind: KindViolation,
				Check: v.Check, Tick: v.Tick,
				Detail: fmt.Sprintf("%s only: %s", m.label, v.Detail),
			}
		}
		if !bytes.Equal(serial.trace, inc.trace) {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Tick:   diffTick(serial.trace, inc.trace),
				Detail: fmt.Sprintf("trace diverges between oracle and %s", m.label),
			}
		}
		if !bytes.Equal(serial.res, inc.res) {
			return &Failure{
				Scenario: sc, Kind: KindDifferential,
				Detail: fmt.Sprintf("results diverge between oracle and %s", m.label),
			}
		}
	}
	return nil
}

// diffTick returns the 1-based index of the first differing trace
// line — the tick where two paths diverged (one trace line per tick).
func diffTick(a, b []byte) int {
	la := bytes.Split(a, []byte{'\n'})
	lb := bytes.Split(b, []byte{'\n'})
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return n + 1
}
