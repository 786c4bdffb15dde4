package simnet

import (
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Stepper drives one simulation tick-by-tick under external control —
// the serve runtime's way of embedding the engine stack as a background
// mobility/link event stream while request workers read the live
// snapshot between steps.
//
// Run is a Stepper driven until Step returns false, so both share one
// ticker cadence, one horizon and one Results (TestStepperMatchesRun
// pins that, and the Done, step-after-done and final-clock contract).
//
// Concurrency contract: Step mutates the live snapshot; the accessor
// methods (Hierarchy, Positions, ...) expose storage that the *next*
// Step will recycle. Callers interleaving reads with steps must
// externally exclude the two (the serve runtime holds an RWMutex write
// lock around Step and read locks around snapshot use).
type Stepper struct {
	cfg     Config
	lp      *looper
	eng     *sim.Engine
	horizon float64
	done    bool
}

// NewStepper validates cfg and builds the initial snapshot. Callers
// own the returned Stepper and must Close it.
func NewStepper(cfg Config) (*Stepper, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lp, err := setupRun(cfg)
	if err != nil {
		return nil, err
	}
	s := &Stepper{cfg: cfg, lp: lp, eng: sim.NewEngine(), horizon: cfg.Warmup + cfg.Duration}
	s.eng.Ticker(cfg.ScanInterval, cfg.ScanInterval, "scan", func(e *sim.Engine) {
		lp.step(e.Now())
	})
	return s, nil
}

// Step fires the next scan tick and returns true, or returns false
// once the horizon is reached (leaving the clock at the horizon,
// matching RunUntil).
func (s *Stepper) Step() bool {
	if s.done {
		return false
	}
	t, ok := s.eng.NextTime()
	if !ok || t > s.horizon {
		s.eng.AdvanceTo(s.horizon)
		s.done = true
		return false
	}
	s.eng.Step()
	return true
}

// Done reports whether the run has reached its horizon.
func (s *Stepper) Done() bool { return s.done }

// Now returns the current virtual time.
func (s *Stepper) Now() float64 { return s.eng.Now() }

// NextTime reports when the next scan tick fires.
func (s *Stepper) NextTime() (float64, bool) { return s.eng.NextTime() }

// Config returns the defaulted, validated configuration.
func (s *Stepper) Config() Config { return s.cfg }

// Graph returns the live connectivity snapshot.
func (s *Stepper) Graph() *topology.Graph { return s.lp.graph }

// Hierarchy returns the live cluster hierarchy snapshot.
func (s *Stepper) Hierarchy() *cluster.Hierarchy { return s.lp.hier }

// Identities returns the live hierarchical identities snapshot.
func (s *Stepper) Identities() *cluster.Identities { return s.lp.idents }

// Table returns the live CHLM location table.
func (s *Stepper) Table() *lm.Table { return s.lp.table }

// Selector returns the run's server selector.
func (s *Stepper) Selector() *lm.Selector { return s.lp.selector }

// Positions returns the live position slice (mutated in place by Step).
func (s *Stepper) Positions() []geom.Vec { return s.lp.pos }

// Results finalizes the run's measurements; call after Step has
// returned false.
func (s *Stepper) Results() (*Results, error) { return s.lp.st.results(s.cfg) }

// Close releases the run's worker pool.
func (s *Stepper) Close() { s.lp.close() }
