// Package mobility implements the node mobility models used by the
// paper. The primary model is random waypoint (Broch et al., MobiCom
// '98) with zero pause time and fixed speed μ, exactly as assumed in
// §1.2 of the paper; a random-direction model, an RPGM group model and
// a stationary model are provided for ablations and tests.
//
// Models expose piecewise-linear kinematics: a node's position is an
// analytic function of time between waypoint decisions, so the
// simulator can advance all nodes to an arbitrary instant without
// accumulating per-tick integration error: a trajectory depends only on
// the sequence of times passed to AdvanceTo, never on the step size.
package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Model drives the motion of a set of nodes inside a disc region.
type Model interface {
	// Init places n nodes and returns their initial positions.
	Init(n int) []geom.Vec
	// AdvanceTo moves all nodes to absolute time t (monotonically
	// increasing across calls) and writes positions into pos.
	AdvanceTo(t float64, pos []geom.Vec)
	// Speed returns the configured node speed μ in m/s (mean speed for
	// models with varying speed).
	Speed() float64
}

// leg is one linear segment of travel: from origin at time t0 toward
// dest, arriving at time t1.
type leg struct {
	origin geom.Vec
	dest   geom.Vec
	t0, t1 float64
}

func (l *leg) at(t float64) geom.Vec {
	if t >= l.t1 {
		return l.dest
	}
	//lint:ignore floateq degenerate leg has t1 assigned equal to t0, never computed
	if l.t1 == l.t0 {
		return l.dest
	}
	frac := (t - l.t0) / (l.t1 - l.t0)
	return l.origin.Lerp(l.dest, frac)
}

// Waypoint is the random waypoint model: each node repeatedly picks a
// uniform destination in the disc and travels there in a straight line
// at speed μ with zero pause, per the paper's assumption.
type Waypoint struct {
	Region geom.Disc
	Mu     float64 // node speed, m/s
	Pause  float64 // pause at each waypoint, s (paper: 0)

	src  *rng.Source
	legs []leg
	now  float64
}

// NewWaypoint builds a random waypoint model over region at speed mu
// m/s with zero pause, drawing randomness from src.
func NewWaypoint(region geom.Disc, mu float64, src *rng.Source) *Waypoint {
	if mu <= 0 {
		panic("mobility: waypoint speed must be positive")
	}
	return &Waypoint{Region: region, Mu: mu, src: src}
}

// Speed returns μ.
func (w *Waypoint) Speed() float64 { return w.Mu }

// Init samples n uniform initial positions and initial waypoints.
//
// Note: sampling the initial position uniformly (rather than from the
// RWP stationary distribution) means the spatial distribution drifts
// toward the well-known center-weighted RWP steady state during a
// warm-up period; experiment runners discard that warm-up.
func (w *Waypoint) Init(n int) []geom.Vec {
	pos := make([]geom.Vec, n)
	w.legs = make([]leg, n)
	for i := range pos {
		pos[i] = w.Region.Sample(w.src)
		w.legs[i] = w.newLeg(pos[i], 0)
	}
	w.now = 0
	return pos
}

func (w *Waypoint) newLeg(from geom.Vec, t float64) leg {
	dest := w.Region.Sample(w.src)
	dist := from.Dist(dest)
	depart := t + w.Pause
	return leg{origin: from, dest: dest, t0: depart, t1: depart + dist/w.Mu}
}

// AdvanceTo moves every node to time t.
func (w *Waypoint) AdvanceTo(t float64, pos []geom.Vec) {
	if t < w.now {
		panic("mobility: AdvanceTo moved backwards")
	}
	for i := range w.legs {
		l := &w.legs[i]
		for t >= l.t1 {
			*l = w.newLeg(l.dest, l.t1)
		}
		if t < l.t0 {
			pos[i] = l.origin // pausing at the waypoint
		} else {
			pos[i] = l.at(t)
		}
	}
	w.now = t
}

// RandomDirection is the random direction model: each node travels in
// a uniformly random heading for an exponentially distributed duration,
// reflecting off the region boundary. Unlike random waypoint it has a
// uniform stationary spatial distribution, so it serves as a robustness
// check that results are not artifacts of RWP center-weighting.
//
// Motion is maintained as exact linear legs: each leg ends either at
// the heading's expiry instant or at the precise boundary-crossing
// instant (solved in closed form), whichever comes first. A heading
// change that lands exactly on an advance boundary is therefore just a
// leg whose t1 equals the advance time — the roll loop consumes it like
// any other expired leg, with no step-size-dependent special case.
type RandomDirection struct {
	Region   geom.Disc
	Mu       float64
	MeanLegT float64 // mean leg duration, s

	src  *rng.Source
	legs []dirLeg
	now  float64
}

// dirLeg is one linear piece of a random-direction trajectory: travel
// from origin at t0 with unit heading dir until t1, where t1 =
// min(until, boundary-exit time) and until is the instant the current
// heading expires.
type dirLeg struct {
	origin geom.Vec
	dir    geom.Vec // unit heading
	t0, t1 float64
	until  float64 // heading expiry; t1 < until means a boundary reflection at t1
}

func (l *dirLeg) posAt(mu, t float64) geom.Vec {
	return l.origin.Add(l.dir.Scale(mu * (t - l.t0)))
}

// NewRandomDirection builds a random-direction model. meanLegT is the
// mean duration between heading changes.
func NewRandomDirection(region geom.Disc, mu, meanLegT float64, src *rng.Source) *RandomDirection {
	if mu <= 0 || meanLegT <= 0 {
		panic("mobility: random direction needs positive mu and meanLegT")
	}
	return &RandomDirection{Region: region, Mu: mu, MeanLegT: meanLegT, src: src}
}

// Speed returns μ.
func (r *RandomDirection) Speed() float64 { return r.Mu }

// Init places n nodes uniformly with random headings.
func (r *RandomDirection) Init(n int) []geom.Vec {
	r.legs = make([]dirLeg, n)
	out := make([]geom.Vec, n)
	for i := range r.legs {
		l := &r.legs[i]
		l.origin = r.Region.Sample(r.src)
		l.dir = r.randomHeading()
		l.t0 = 0
		l.until = r.src.Exp(1 / r.MeanLegT)
		l.t1 = r.legEnd(l)
		out[i] = l.origin
	}
	r.now = 0
	return out
}

func (r *RandomDirection) randomHeading() geom.Vec {
	theta := r.src.Range(0, 2*math.Pi)
	return geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)}
}

// legEnd returns the end time of the leg: the heading expiry, or the
// exact boundary-crossing instant if the heading would leave the
// region first.
func (r *RandomDirection) legEnd(l *dirLeg) float64 {
	span := l.until - l.t0
	if span <= 0 {
		return l.t0
	}
	end := l.origin.Add(l.dir.Scale(r.Mu * span))
	u := r.Region.SegmentCircleExit(l.origin, end)
	return l.t0 + u*span
}

// rollLeg replaces an expired leg (t >= t1) with its successor. At a
// heading expiry (t1 >= until) the node draws a fresh heading and
// duration; at a boundary crossing (t1 < until) it reflects inward
// with a random perturbation to avoid boundary cycling. A heading
// expiry landing exactly on the boundary-crossing instant counts as a
// heading expiry; if the fresh heading points outward the successor
// leg is zero-length and the next roll reflects it — every case makes
// progress, there is no step-granularity special case.
func (r *RandomDirection) rollLeg(l *dirLeg) {
	p := l.posAt(r.Mu, l.t1)
	if l.t1 >= l.until {
		l.dir = r.randomHeading()
		l.until = l.t1 + r.src.Exp(1/r.MeanLegT)
	} else {
		inward := r.Region.C.Sub(p).Normalize()
		l.dir = inward.Add(r.randomHeading().Scale(0.5)).Normalize()
	}
	l.origin = p
	l.t0 = l.t1
	l.t1 = r.legEnd(l)
}

// AdvanceTo integrates motion to time t with exact boundary reflection.
func (r *RandomDirection) AdvanceTo(t float64, pos []geom.Vec) {
	if t < r.now {
		panic("mobility: AdvanceTo moved backwards")
	}
	for i := range r.legs {
		l := &r.legs[i]
		for t >= l.t1 {
			r.rollLeg(l)
		}
		pos[i] = l.posAt(r.Mu, t)
	}
	r.now = t
}

// Stationary keeps all nodes fixed; useful for static-topology
// experiments (hierarchy structure, hop-count scaling) and tests.
type Stationary struct {
	Region geom.Disc
	src    *rng.Source
	fixed  []geom.Vec
}

// NewStationary builds a stationary placement model.
func NewStationary(region geom.Disc, src *rng.Source) *Stationary {
	return &Stationary{Region: region, src: src}
}

// Speed returns 0.
func (s *Stationary) Speed() float64 { return 0 }

// Init places n nodes uniformly.
func (s *Stationary) Init(n int) []geom.Vec {
	s.fixed = make([]geom.Vec, n)
	for i := range s.fixed {
		s.fixed[i] = s.Region.Sample(s.src)
	}
	out := make([]geom.Vec, n)
	copy(out, s.fixed)
	return out
}

// AdvanceTo copies the fixed positions.
func (s *Stationary) AdvanceTo(t float64, pos []geom.Vec) {
	copy(pos, s.fixed)
}

// compile-time interface checks
var (
	_ Model = (*Waypoint)(nil)
	_ Model = (*RandomDirection)(nil)
	_ Model = (*Stationary)(nil)
	_ Model = (*GroupMobility)(nil)
	_ Model = (*GaussMarkov)(nil)
	_ Model = (*Manhattan)(nil)
	_ Model = (*Hotspot)(nil)
)

// GroupMobility is the reference-point group mobility model (RPGM,
// Hong et al. '99): nodes are partitioned into groups; each group's
// reference point travels by random waypoint, and members wander
// within GroupRadius of it. The paper's §2.1 cites HSR's group
// mobility support as a motivation for hierarchical routing — under
// RPGM, clusters align with groups, so cluster membership churn is
// driven by group meetings rather than individual crossings (ablation
// A6 measures the effect on handoff overhead).
type GroupMobility struct {
	Region      geom.Disc
	Mu          float64 // reference-point speed, m/s
	GroupSize   int     // nodes per group (last group may be smaller)
	GroupRadius float64 // member wander radius around the reference point
	MemberMu    float64 // member wander speed (default Mu/2)

	src       *rng.Source
	refs      *Waypoint // reference points
	refPos    []geom.Vec
	offsets   *Waypoint // member offsets, in a zero-centered disc
	offPos    []geom.Vec
	group     []int // node -> group index
	n         int
	memberMu  float64 // effective member speed
	effRadius float64 // effective wander radius after region-fitting
}

// NewGroupMobility builds an RPGM model: ceil(n/groupSize) groups over
// region with reference speed mu.
func NewGroupMobility(region geom.Disc, mu, groupRadius float64, groupSize int, src *rng.Source) *GroupMobility {
	if mu <= 0 || groupRadius <= 0 || groupSize <= 0 {
		panic("mobility: group mobility needs positive mu, radius and size")
	}
	return &GroupMobility{
		Region: region, Mu: mu, GroupSize: groupSize, GroupRadius: groupRadius,
		MemberMu: mu / 2, src: src,
	}
}

// Speed returns the reference-point speed μ.
func (g *GroupMobility) Speed() float64 { return g.Mu }

// Init places groups and members. The reference region and the wander
// radius are sized so their sum never exceeds the region radius: the
// wander radius is capped at R/2 and the reference region shrinks by
// exactly that amount. Members therefore never clamp against the disc
// boundary, which keeps per-step displacement bounded by
// (Mu+MemberMu)·dt and member motion exactly piecewise linear.
func (g *GroupMobility) Init(n int) []geom.Vec {
	g.n = n
	groups := (n + g.GroupSize - 1) / g.GroupSize
	g.effRadius = g.GroupRadius
	if g.effRadius > g.Region.R/2 {
		g.effRadius = g.Region.R / 2
	}
	refRegion := g.Region
	refRegion.R -= g.effRadius
	g.refs = NewWaypoint(refRegion, g.Mu, g.src.Split())
	g.refPos = g.refs.Init(groups)
	g.memberMu = g.MemberMu
	if g.memberMu <= 0 {
		g.memberMu = g.Mu / 2
	}
	g.offsets = NewWaypoint(geom.Disc{R: g.effRadius}, g.memberMu, g.src.Split())
	g.offPos = g.offsets.Init(n)
	g.group = make([]int, n)
	out := make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		g.group[i] = i / g.GroupSize
		out[i] = g.Region.Clamp(g.refPos[g.group[i]].Add(g.offPos[i]))
	}
	return out
}

// AdvanceTo moves reference points and member offsets to time t. The
// Clamp is belt-and-braces against float dust: Init sizes the two
// regions so |ref| + |offset| <= R, so it never moves a point by more
// than a rounding error.
func (g *GroupMobility) AdvanceTo(t float64, pos []geom.Vec) {
	g.refs.AdvanceTo(t, g.refPos)
	g.offsets.AdvanceTo(t, g.offPos)
	for i := 0; i < g.n; i++ {
		pos[i] = g.Region.Clamp(g.refPos[g.group[i]].Add(g.offPos[i]))
	}
}

// GroupOf reports the group index of a node (for tests and analysis).
func (g *GroupMobility) GroupOf(v int) int { return g.group[v] }
