package simnet

import (
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/lm"
	"repro/internal/topology"
)

// Stepper drives one simulation tick-by-tick under external control —
// the serve runtime's way of embedding the engine stack as a background
// mobility/link event stream while request workers read the live
// snapshot between steps.
//
// Run is a Stepper driven until Step returns false, so both share one
// tick cadence, one horizon and one Results (TestStepperMatchesRun
// pins that, and the Done, step-after-done and final-clock contract).
// The clock is the Stepper's own: tick i+1 fires at tick i's time plus
// ScanInterval, the first at ScanInterval.
//
// Concurrency contract: Step mutates the live snapshot; the accessor
// methods (Hierarchy, Positions, ...) expose storage that the *next*
// Step will recycle. Callers interleaving reads with steps must
// externally exclude the two (the serve runtime holds an RWMutex write
// lock around Step and read locks around snapshot use).
type Stepper struct {
	cfg       Config
	lp        *looper
	now, next float64
	horizon   float64
	done      bool
}

// NewStepper validates cfg and builds the initial snapshot.
func NewStepper(cfg Config) (*Stepper, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lp, err := setupRun(cfg)
	if err != nil {
		return nil, err
	}
	return &Stepper{cfg: cfg, lp: lp, next: cfg.ScanInterval, horizon: cfg.Warmup + cfg.Duration}, nil
}

// Step fires the next scan tick and returns true, or returns false
// once the next tick would pass the horizon (moving the clock forward
// to the horizon).
func (s *Stepper) Step() bool {
	if s.done {
		return false
	}
	if s.next > s.horizon {
		s.now = max(s.now, s.horizon)
		s.done = true
		return false
	}
	s.now = s.next
	s.lp.step(s.now)
	s.next = s.now + s.cfg.ScanInterval
	return true
}

// Done reports whether the run has reached its horizon.
func (s *Stepper) Done() bool { return s.done }

// Now returns the current virtual time.
func (s *Stepper) Now() float64 { return s.now }

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

// Close does nothing. It is kept only for the frozen bench/ replica
// (ROADMAP item 6), which calls it.
func (s *Stepper) Close() {}
