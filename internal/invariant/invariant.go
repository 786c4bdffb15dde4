// Package invariant is the runtime invariant checker of the simulator:
// a registry of cheap structural checks over a scan tick's before and
// after state, each guarding one of the paper's structural premises —
// cluster membership partitions every level (§2.1–2.2), members stay
// within h_k hops of their head (Fig. 2, Eq. 10), ALCA state
// transitions decompose into unit steps (Fig. 3), the CHLM table has
// exactly one owner row per (node, level) with no dangling pointers
// after handoff (§3.2, §4), and the per-tick Diff reconciles the two
// snapshots event by event (§4–§5).
//
// The checker is threaded through simnet.Config.CheckLevel (off /
// sampled / every-tick). A violation carries the offending tick, seed,
// and a minimal state dump, and is counted in the run's obs registry
// (CounterTicksChecked / CounterViolations); delivery is through a
// callback so the fuzzing harness (invariant/prop) can collect,
// shrink, and replay failing scenarios.
package invariant

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/lm"
	"repro/internal/obs"
)

// Level selects how often the checker runs.
type Level int

const (
	// Off disables all checks (the default).
	Off Level = iota
	// Sampled checks the first tick and every sampleStride-th after —
	// cheap enough to leave on in long experiments.
	Sampled
	// EveryTick checks every scan tick (tests, fuzzing, debugging).
	EveryTick
)

// sampleStride is the tick period of Sampled mode.
const sampleStride = 16

// Level names accepted by ParseLevel (and simnet.Config.CheckLevel).
const (
	LevelOff       = "off"
	LevelSampled   = "sampled"
	LevelEveryTick = "every-tick"
)

// ParseLevel maps a config string to a Level. The empty string means
// Off.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", LevelOff:
		return Off, nil
	case LevelSampled:
		return Sampled, nil
	case LevelEveryTick:
		return EveryTick, nil
	}
	return Off, fmt.Errorf("invariant: unknown check level %q (want %s|%s|%s)",
		s, LevelOff, LevelSampled, LevelEveryTick)
}

// String returns the ParseLevel-compatible name.
func (l Level) String() string {
	switch l {
	case Sampled:
		return LevelSampled
	case EveryTick:
		return LevelEveryTick
	}
	return LevelOff
}

// Violation is one failed check, with enough context to reproduce it:
// the check name, the offending tick and simulated time, the run seed,
// and a minimal dump of the state the check saw.
type Violation struct {
	Check  string  `json:"check"`
	Tick   int     `json:"tick"`
	Time   float64 `json:"time"`
	Seed   uint64  `json:"seed"`
	Detail string  `json:"detail"`
	Dump   string  `json:"dump,omitempty"`
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at tick %d (t=%.2f, seed %d): %s\n%s",
		v.Check, v.Tick, v.Time, v.Seed, v.Detail, v.Dump)
}

// State bundles one snapshot of the simulator's derived state.
type State struct {
	Hier  *cluster.Hierarchy
	IDs   *cluster.Identities
	Table *lm.Table
}

// Snapshot is the per-tick input to the checker: the live (t-1)
// snapshot, the fresh (t) snapshot, and the Diff computed between
// them. Prev and Diff are nil for the setup snapshot (tick 0), which
// disables the cross-snapshot checks.
type Snapshot struct {
	Tick int
	Time float64
	Seed uint64

	Prev *State // nil at setup
	Next *State
	Diff *cluster.Diff // nil at setup

	// Selector, when set, enables the rebuild differential
	// (table-rebuild-equal): Next.Table must equal a from-scratch
	// BuildTable. This is the check that catches buffer-reuse
	// corruption in the zero-alloc incremental path.
	Selector *lm.Selector
}

// Check is one named invariant with the paper anchor it guards.
type Check struct {
	Name   string
	Guards string // the paper equation/figure this check protects
	Fn     func(*Snapshot) error
}

// Checker runs the check catalog at the configured level and reports
// violations. A nil *Checker is valid and never checks, so callers
// need no "is checking on?" branches.
type Checker struct {
	level       Level
	onViolation func(Violation)
	checks      []Check

	ticksChecked *obs.Counter
	violations   *obs.Counter
}

// New returns a checker at the given level, or nil for Off. Counters
// register in reg (nil-safe). onViolation receives each violation; a
// nil callback panics on the first violation with the full Violation
// as the panic value.
func New(level Level, reg *obs.Registry, onViolation func(Violation)) *Checker {
	if level == Off {
		return nil
	}
	return &Checker{
		level:        level,
		onViolation:  onViolation,
		checks:       Checks(),
		ticksChecked: reg.Counter(obs.InvariantTicksChecked),
		violations:   reg.Counter(obs.InvariantViolations),
	}
}

// ShouldCheck reports whether the given tick is due for checking.
func (c *Checker) ShouldCheck(tick int) bool {
	if c == nil {
		return false
	}
	if c.level == EveryTick {
		return true
	}
	return tick%sampleStride == 1
}

// CheckTick runs every check over the snapshot and returns the number
// of violations found. A check that panics (e.g. on state too corrupt
// to traverse) is itself reported as a violation of that check rather
// than tearing down the run.
func (c *Checker) CheckTick(s *Snapshot) int {
	if c == nil {
		return 0
	}
	c.ticksChecked.Inc()
	found := 0
	for i := range c.checks {
		chk := &c.checks[i]
		if err := runCheck(chk, s); err != nil {
			found++
			c.violations.Inc()
			c.report(Violation{
				Check:  chk.Name,
				Tick:   s.Tick,
				Time:   s.Time,
				Seed:   s.Seed,
				Detail: err.Error(),
				Dump:   Dump(s),
			})
		}
	}
	return found
}

func (c *Checker) report(v Violation) {
	if c.onViolation != nil {
		c.onViolation(v)
		return
	}
	panic(v)
}

// runCheck invokes one check, converting a panic inside it into an
// error so one corrupt structure cannot crash the whole harness.
func runCheck(chk *Check, s *Snapshot) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check panicked: %v", r)
		}
	}()
	return chk.Fn(s)
}

// Dump renders the minimal state dump attached to violations: level
// populations and edge counts of both snapshots, diff event counts,
// and table size — enough to triage without attaching full snapshots.
func Dump(s *Snapshot) string {
	var b strings.Builder
	if s.Prev != nil {
		dumpHier(&b, "prev", s.Prev.Hier)
	}
	dumpHier(&b, "next", s.Next.Hier)
	if d := s.Diff; d != nil {
		el, rj, mig, str := 0, 0, 0, 0
		maxL := maxLevels(s)
		for k := 1; k <= maxL; k++ {
			el += len(d.Elections[k])
			rj += len(d.Rejections[k])
			mig += len(d.MigrationLinkEvents[k])
			str += len(d.StructuralLinkEvents[k])
		}
		fmt.Fprintf(&b, "  diff: elections=%d rejections=%d miglinks=%d strlinks=%d memberships=%d statedeltas=%d\n",
			el, rj, mig, str, len(d.Memberships), len(d.StateDeltas))
	}
	if t := s.Next.Table; t != nil {
		fmt.Fprintf(&b, "  table: owners=%d entries=%d\n", len(t.Owners()), t.EntryCount())
	}
	return b.String()
}

func dumpHier(b *strings.Builder, tag string, h *cluster.Hierarchy) {
	if h == nil {
		fmt.Fprintf(b, "  %s: <nil>\n", tag)
		return
	}
	fmt.Fprintf(b, "  %s: L=%d nodes=[", tag, h.L())
	for k, lvl := range h.Levels {
		if k > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(b, "%d", len(lvl.Nodes))
	}
	b.WriteString("] edges=[")
	for k, lvl := range h.Levels {
		if k > 0 {
			b.WriteByte('/')
		}
		if lvl.Graph != nil {
			fmt.Fprintf(b, "%d", lvl.Graph.EdgeCount())
		} else {
			b.WriteByte('-')
		}
	}
	b.WriteString("]\n")
}

func maxLevels(s *Snapshot) int {
	maxL := len(s.Next.Hier.Levels)
	if s.Prev != nil && len(s.Prev.Hier.Levels) > maxL {
		maxL = len(s.Prev.Hier.Levels)
	}
	return maxL
}
