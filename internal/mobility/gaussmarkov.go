package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// GaussMarkov is the Gauss–Markov mobility model (Liang & Haas '99;
// Camp et al. '02 survey): each node carries a speed and heading state
// that relaxes toward a mean with tunable memory. Every Tau seconds
// the state updates as
//
//	s ← α·s + (1−α)·μ  + √(1−α²)·σ_s·N(0,1)
//	θ ← α·θ + (1−α)·θ̄ + √(1−α²)·σ_θ·N(0,1)
//
// so trajectories are temporally correlated — unlike random waypoint,
// a node's velocity now predicts its velocity a few seconds out, which
// is exactly the correlation structure the paper's uncorrelated-motion
// analysis assumes away.
//
// The updated speed is hard-clamped to [0, Cap], so a node never moves
// more than Cap·dt in dt seconds; without the clamp the Gaussian
// innovation has unbounded support and so does the speed.
//
// Between updates motion is exactly linear, and boundary handling
// reuses the random-direction machinery: each leg ends at the next
// update epoch or at the closed-form boundary-crossing instant,
// whichever comes first, so there is no step-size-dependent behavior.
// Near the edge the mean heading θ̄ steers toward the region center
// (the standard edge treatment), so nodes do not pile up on the
// boundary.
type GaussMarkov struct {
	Region geom.Disc
	Mu     float64 // mean speed μ, m/s
	Alpha  float64 // memory parameter α in [0, 1)
	SigmaS float64 // speed innovation std dev σ_s, m/s
	SigmaT float64 // heading innovation std dev σ_θ, rad
	Tau    float64 // state update period, s
	Cap    float64 // hard speed clamp, m/s

	src   *rng.Source
	nodes []gmNode
	now   float64
}

// gmNode is one node's Gauss–Markov state plus its current linear leg.
type gmNode struct {
	speed float64 // current speed, in [0, Cap]
	theta float64 // current heading, rad
	mean  float64 // mean heading θ̄ (edge-steered)
	leg   gmLeg
}

// gmLeg is one linear piece: from origin at t0 with velocity vel until
// t1 = min(until, boundary-exit instant), where until is the next
// Gauss–Markov update epoch. t1 < until means a boundary reflection.
type gmLeg struct {
	origin geom.Vec
	vel    geom.Vec
	t0, t1 float64
	until  float64
}

// edgeFrac is the center-distance fraction beyond which the mean
// heading steers toward the region center.
const edgeFrac = 0.85

// NewGaussMarkov builds a Gauss–Markov model over region with mean
// speed mu, memory alpha in [0, 1), and update period tau. Zero-value
// tuning fields take defaults: σ_s = μ/2, σ_θ = 0.4 rad, speed cap
// 2μ.
func NewGaussMarkov(region geom.Disc, mu, alpha, tau float64, src *rng.Source) *GaussMarkov {
	if mu <= 0 {
		panic("mobility: gauss-markov speed must be positive")
	}
	if alpha < 0 || alpha >= 1 {
		panic("mobility: gauss-markov alpha must be in [0, 1)")
	}
	if tau <= 0 {
		panic("mobility: gauss-markov tau must be positive")
	}
	return &GaussMarkov{
		Region: region, Mu: mu, Alpha: alpha, Tau: tau,
		SigmaS: mu / 2, SigmaT: 0.4, Cap: 2 * mu,
		src: src,
	}
}

// Speed returns the mean speed μ.
func (g *GaussMarkov) Speed() float64 { return g.Mu }

// clampSpeed applies the hard speed cap [0, Cap].
func (g *GaussMarkov) clampSpeed(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > g.Cap {
		return g.Cap
	}
	return s
}

// Init places n nodes uniformly with stationary-mean speeds and
// uniform headings.
func (g *GaussMarkov) Init(n int) []geom.Vec {
	g.nodes = make([]gmNode, n)
	out := make([]geom.Vec, n)
	for i := range g.nodes {
		nd := &g.nodes[i]
		p := g.Region.Sample(g.src)
		nd.theta = g.src.Range(0, 2*math.Pi)
		nd.mean = nd.theta
		nd.speed = g.clampSpeed(g.Mu + g.SigmaS*g.src.Norm())
		nd.leg = gmLeg{origin: p, t0: 0, until: g.Tau}
		nd.leg.vel = headingVec(nd.theta).Scale(nd.speed)
		nd.leg.t1 = g.legEnd(&nd.leg)
		out[i] = p
	}
	g.now = 0
	return out
}

// headingVec returns the unit vector at angle theta.
func headingVec(theta float64) geom.Vec {
	return geom.Vec{X: math.Cos(theta), Y: math.Sin(theta)}
}

// legEnd returns the end time of the leg: the update epoch, or the
// exact boundary-crossing instant if the velocity would leave the
// region first. Zero velocity never crosses.
func (g *GaussMarkov) legEnd(l *gmLeg) float64 {
	span := l.until - l.t0
	if span <= 0 {
		return l.t0
	}
	end := l.origin.Add(l.vel.Scale(span))
	u := g.Region.SegmentCircleExit(l.origin, end)
	return l.t0 + u*span
}

// rollLeg replaces an expired leg (t >= t1) with its successor. At an
// update epoch (t1 >= until) the Gauss–Markov recursion advances the
// node's speed and heading, with the mean heading steered toward the
// center when the node sits in the outer (1−edgeFrac) annulus; at a
// boundary crossing (t1 < until) the node reflects inward with a
// random perturbation to avoid boundary cycling, exactly like
// RandomDirection. Every case makes progress: reflections always point
// strictly inward and epochs advance until by Tau.
func (g *GaussMarkov) rollLeg(nd *gmNode) {
	l := &nd.leg
	p := l.origin.Add(l.vel.Scale(l.t1 - l.t0))
	if l.t1 >= l.until {
		if p.Dist(g.Region.C) > edgeFrac*g.Region.R {
			in := g.Region.C.Sub(p)
			nd.mean = math.Atan2(in.Y, in.X)
		}
		a := g.Alpha
		q := math.Sqrt(1 - a*a)
		nd.speed = g.clampSpeed(a*nd.speed + (1-a)*g.Mu + q*g.SigmaS*g.src.Norm())
		nd.theta = a*nd.theta + (1-a)*nd.mean + q*g.SigmaT*g.src.Norm()
		l.until = l.t1 + g.Tau
	} else {
		inward := g.Region.C.Sub(p).Normalize()
		dir := inward.Add(randomHeadingFrom(g.src).Scale(0.5)).Normalize()
		nd.theta = math.Atan2(dir.Y, dir.X)
		nd.mean = nd.theta
	}
	l.origin = p
	l.t0 = l.t1
	l.vel = headingVec(nd.theta).Scale(nd.speed)
	l.t1 = g.legEnd(l)
}

// randomHeadingFrom draws a uniform unit heading from src.
func randomHeadingFrom(src *rng.Source) geom.Vec {
	return headingVec(src.Range(0, 2*math.Pi))
}

// AdvanceTo integrates motion to time t with exact boundary
// reflection.
func (g *GaussMarkov) AdvanceTo(t float64, pos []geom.Vec) {
	if t < g.now {
		panic("mobility: AdvanceTo moved backwards")
	}
	for i := range g.nodes {
		nd := &g.nodes[i]
		for t >= nd.leg.t1 {
			g.rollLeg(nd)
		}
		pos[i] = nd.leg.origin.Add(nd.leg.vel.Scale(t - nd.leg.t0))
	}
	g.now = t
}
