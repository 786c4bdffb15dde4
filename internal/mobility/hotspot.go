package mobility

import (
	"repro/internal/geom"
	"repro/internal/rng"
)

// Hotspot is a hotspot/pause mobility model: a fixed set of attraction
// discs ("hotspots" — gathering points, buildings, water sources) is
// placed at Init, and each node repeatedly pauses at its current
// hotspot for an exponentially distributed dwell time, then travels in
// a straight line at speed μ to a uniform point inside a freshly drawn
// hotspot. The resulting spatial distribution is strongly clustered —
// most nodes sit inside a hotspot at any instant — which stresses the
// clustering layer in the opposite direction from the uniform models:
// dense stable clusters connected by sparse transit corridors.
//
// Motion is waypoint-style piecewise linear: pause legs have zero
// velocity, travel legs constant velocity μ.
type Hotspot struct {
	Region     geom.Disc
	Mu         float64 // travel speed, m/s
	Spots      int     // hotspot count (0 = max(3, n/24), resolved at Init)
	SpotRadius float64 // hotspot disc radius, m (0 = Region.R/6)
	MeanPause  float64 // mean dwell time at a hotspot, s

	src     *rng.Source
	centers []geom.Vec
	legs    []leg
	now     float64
}

// NewHotspot builds a hotspot model over region with travel speed mu
// and mean dwell meanPause. spots and spotRadius zero select the
// defaults documented on the fields.
func NewHotspot(region geom.Disc, mu, meanPause float64, spots int, spotRadius float64, src *rng.Source) *Hotspot {
	if mu <= 0 {
		panic("mobility: hotspot speed must be positive")
	}
	if meanPause <= 0 {
		panic("mobility: hotspot mean pause must be positive")
	}
	if spots < 0 || spotRadius < 0 {
		panic("mobility: hotspot count and radius must be non-negative")
	}
	return &Hotspot{
		Region: region, Mu: mu, Spots: spots,
		SpotRadius: spotRadius, MeanPause: meanPause, src: src,
	}
}

// Speed returns μ.
func (h *Hotspot) Speed() float64 { return h.Mu }

// Init places the hotspots and scatters nodes inside them. Hotspot
// centers are sampled in the shrunk disc of radius R − r so every
// hotspot disc lies inside the region; nodes start at a uniform point
// of a uniformly chosen hotspot, already dwelling.
func (h *Hotspot) Init(n int) []geom.Vec {
	spots := h.Spots
	if spots == 0 {
		spots = n / 24
		if spots < 3 {
			spots = 3
		}
	}
	r := h.SpotRadius
	//lint:ignore floateq zero is the documented default-radius sentinel
	if r == 0 {
		r = h.Region.R / 6
	}
	if r > h.Region.R/2 {
		r = h.Region.R / 2
	}
	core := geom.Disc{C: h.Region.C, R: h.Region.R - r}
	h.centers = make([]geom.Vec, spots)
	for i := range h.centers {
		h.centers[i] = core.Sample(h.src)
	}
	h.SpotRadius = r
	h.Spots = spots

	h.legs = make([]leg, n)
	pos := make([]geom.Vec, n)
	for i := range pos {
		spot := h.src.Intn(spots)
		pos[i] = h.spotDisc(spot).Sample(h.src)
		h.legs[i] = h.newLeg(pos[i], 0)
	}
	h.now = 0
	return pos
}

// spotDisc returns hotspot j's attraction disc.
func (h *Hotspot) spotDisc(j int) geom.Disc {
	return geom.Disc{C: h.centers[j], R: h.SpotRadius}
}

// newLeg draws the node's next dwell-and-travel leg from position
// `from` at time t: an exponential pause, then a straight run to a
// uniform point in a uniformly chosen hotspot.
func (h *Hotspot) newLeg(from geom.Vec, t float64) leg {
	pause := h.src.Exp(1 / h.MeanPause)
	spot := h.src.Intn(h.Spots)
	dest := h.spotDisc(spot).Sample(h.src)
	depart := t + pause
	return leg{origin: from, dest: dest, t0: depart, t1: depart + from.Dist(dest)/h.Mu}
}

// AdvanceTo moves every node to time t.
func (h *Hotspot) AdvanceTo(t float64, pos []geom.Vec) {
	if t < h.now {
		panic("mobility: AdvanceTo moved backwards")
	}
	for i := range h.legs {
		l := &h.legs[i]
		for t >= l.t1 {
			*l = h.newLeg(l.dest, l.t1)
		}
		if t < l.t0 {
			pos[i] = l.origin // dwelling at the hotspot
		} else {
			pos[i] = l.at(t)
		}
	}
	h.now = t
}

// Centers returns the hotspot centers (for tests and analysis).
func (h *Hotspot) Centers() []geom.Vec { return h.centers }
