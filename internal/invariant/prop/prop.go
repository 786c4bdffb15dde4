// Package prop is the property-based scenario harness over the
// runtime invariant checker: it generates random simulation
// configurations from fuzz-provided bytes, runs short simulations with
// every-tick invariant checks, and shrinks failing scenarios to a
// minimal (config, seed, tick) triple written as a regression corpus
// file (testdata/regress). FuzzScenario in fuzz_test.go is the
// Go-native fuzz target; `make fuzz` drives it locally and the nightly
// CI job gives it a five-minute budget.
package prop

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/invariant"
	"repro/internal/par"
	"repro/internal/simnet"
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
// directly, and no warmup (every tick is measured).
func (sc Scenario) Config() simnet.Config {
	cfg := simnet.Config{
		N:            sc.N,
		Seed:         sc.Seed,
		ScanInterval: 1,
		Duration:     float64(sc.Ticks),
		Warmup:       -1,
		Mobility:     sc.Mobility,
		Link:         sc.Link,
		HopModel:     sc.HopModel,
		Degree:       sc.Degree,
		Mu:           sc.Mu,
		ChurnRate:    sc.ChurnRate,
		MeanDowntime: sc.MeanDowntime,
		TopArity:     sc.TopArity,
		TrackStates:  sc.TrackStates,
		TrackClasses: sc.TrackClasses,
		NaiveNaming:  sc.NaiveNaming,
		SampleHops:   sc.SampleHops,
		HopPairs:     sc.HopPairs,
		Fault:        sc.Fault,
		CheckLevel:   invariant.LevelEveryTick,
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
	KindPanic     = "panic"     // the run panicked
	KindViolation = "violation" // an invariant check fired
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

// CheckScenario runs the scenario with every-tick invariant checks
// and returns the first failure, or nil: the run must not panic, and
// no check may fire. A config the simulator rejects is not a failure.
func CheckScenario(sc Scenario) *Failure {
	var violations []invariant.Violation
	cfg := sc.Config()
	cfg.OnViolation = func(v invariant.Violation) {
		if len(violations) < maxViolations {
			violations = append(violations, v)
		}
	}
	if perr := par.Recover(func() { _, _ = simnet.Run(cfg) }); perr != nil {
		return &Failure{Scenario: sc, Kind: KindPanic, Detail: perr.Error()}
	}
	if len(violations) > 0 {
		v := violations[0]
		return &Failure{
			Scenario: sc, Kind: KindViolation,
			Check: v.Check, Tick: v.Tick, Detail: v.Detail,
		}
	}
	return nil
}
