package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Manhattan is the Manhattan-grid mobility model (ETSI UMTS / Bai et
// al. '03): nodes travel along the lines of a street grid at constant
// speed μ, and at every intersection continue straight with
// probability 1/2 or turn left/right with probability 1/4 each (among
// the directions that stay on the grid; a dead end forces a U-turn).
// Motion is geographically constrained — unlike the open-field models,
// two nodes on parallel streets can never close below the street
// spacing — which changes the link-event mix the location-management
// layer sees.
//
// The grid spans the bounding square of the deployment disc with
// K = max(1, round(side/Block)) blocks per axis (K+1 streets), so
// corner streets may lie outside the disc proper; the spatial index
// covers the full square, so this is purely a density statement.
// Motion is exactly piecewise linear: legs run between adjacent
// intersections at constant speed μ.
type Manhattan struct {
	Region geom.Disc
	Mu     float64 // node speed, m/s
	Block  float64 // target street spacing, m

	src     *rng.Source
	min     geom.Vec // lower-left corner of the street grid
	k       int      // blocks per axis; streets at indices 0..k
	spacing float64  // actual street spacing: side/k
	legs    []manLeg
	now     float64
}

// Street directions, encoded so turning is index arithmetic.
const (
	dirEast  = 0 // +x
	dirWest  = 1 // -x
	dirNorth = 2 // +y
	dirSouth = 3 // -y
)

// manLeg is one street leg: from origin at t0 toward the intersection
// (ix, iy), arriving at t1.
type manLeg struct {
	origin geom.Vec
	ix, iy int // target intersection indices, in [0, k]
	dir    int
	t0, t1 float64
}

// turnLeft/turnRight map a direction to its left/right neighbor.
var (
	turnLeft  = [4]int{dirNorth, dirSouth, dirWest, dirEast}
	turnRight = [4]int{dirSouth, dirNorth, dirEast, dirWest}
	reverse   = [4]int{dirWest, dirEast, dirSouth, dirNorth}
	dirVec    = [4]geom.Vec{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
)

// NewManhattan builds a Manhattan-grid model over the bounding square
// of region with speed mu and target street spacing block (0 selects
// side/8).
func NewManhattan(region geom.Disc, mu, block float64, src *rng.Source) *Manhattan {
	if mu <= 0 {
		panic("mobility: manhattan speed must be positive")
	}
	if block < 0 {
		panic("mobility: manhattan block must be non-negative")
	}
	min, side := region.BoundingSquare()
	//lint:ignore floateq zero is the documented default-block sentinel
	if block == 0 {
		block = side / 8
	}
	k := int(math.Round(side / block))
	if k < 1 {
		k = 1
	}
	return &Manhattan{
		Region: region, Mu: mu, Block: block,
		src: src, min: min, k: k, spacing: side / float64(k),
	}
}

// Speed returns μ.
func (m *Manhattan) Speed() float64 { return m.Mu }

// intersection returns the exact position of intersection (ix, iy),
// recomputed from indices so legs never accumulate float drift.
func (m *Manhattan) intersection(ix, iy int) geom.Vec {
	return geom.Vec{
		X: m.min.X + float64(ix)*m.spacing,
		Y: m.min.Y + float64(iy)*m.spacing,
	}
}

// valid reports whether moving one block from (ix, iy) in direction d
// stays on the grid.
func (m *Manhattan) valid(ix, iy, d int) bool {
	switch d {
	case dirEast:
		return ix < m.k
	case dirWest:
		return ix > 0
	case dirNorth:
		return iy < m.k
	default:
		return iy > 0
	}
}

// stepIdx returns the intersection one block from (ix, iy) along d.
func stepIdx(ix, iy, d int) (int, int) {
	switch d {
	case dirEast:
		return ix + 1, iy
	case dirWest:
		return ix - 1, iy
	case dirNorth:
		return ix, iy + 1
	default:
		return ix, iy - 1
	}
}

// Init scatters n nodes uniformly along the streets: each picks an
// orientation, a street, a position along it, and a travel sense.
func (m *Manhattan) Init(n int) []geom.Vec {
	m.legs = make([]manLeg, n)
	out := make([]geom.Vec, n)
	side := float64(m.k) * m.spacing
	for i := range m.legs {
		l := &m.legs[i]
		horiz := m.src.Intn(2) == 0
		street := m.src.Intn(m.k + 1)
		u := m.src.Float64() * side
		forward := m.src.Intn(2) == 0
		// Index of the block the node stands in, and the target
		// intersection one step in the travel sense.
		blk := int(u / m.spacing)
		if blk >= m.k {
			blk = m.k - 1
		}
		if horiz {
			l.origin = geom.Vec{X: m.min.X + u, Y: m.min.Y + float64(street)*m.spacing}
			if forward {
				l.dir, l.ix, l.iy = dirEast, blk+1, street
			} else {
				l.dir, l.ix, l.iy = dirWest, blk, street
			}
		} else {
			l.origin = geom.Vec{X: m.min.X + float64(street)*m.spacing, Y: m.min.Y + u}
			if forward {
				l.dir, l.ix, l.iy = dirNorth, street, blk+1
			} else {
				l.dir, l.ix, l.iy = dirSouth, street, blk
			}
		}
		l.t0 = 0
		l.t1 = l.origin.Dist(m.intersection(l.ix, l.iy)) / m.Mu
		out[i] = l.origin
	}
	m.now = 0
	return out
}

// nextDir draws the turn decision at intersection (ix, iy) arriving
// with direction d: straight with weight 2, left and right with weight
// 1 each, restricted to directions that stay on the grid; a dead end
// (no candidate valid) forces a U-turn. One uniform draw decides.
func (m *Manhattan) nextDir(ix, iy, d int) int {
	cand := [3]int{d, turnLeft[d], turnRight[d]}
	weight := [3]float64{2, 1, 1}
	total := 0.0
	for c := 0; c < 3; c++ {
		if m.valid(ix, iy, cand[c]) {
			total += weight[c]
		}
	}
	//lint:ignore floateq total sums exact small-integer weights (2/1/1), so zero is exact: no valid candidate
	if total == 0 {
		return reverse[d]
	}
	r := m.src.Float64() * total
	for c := 0; c < 3; c++ {
		if !m.valid(ix, iy, cand[c]) {
			continue
		}
		if r < weight[c] {
			return cand[c]
		}
		r -= weight[c]
	}
	// Float dust put r exactly at total; take the last valid candidate.
	for c := 2; c >= 0; c-- {
		if m.valid(ix, iy, cand[c]) {
			return cand[c]
		}
	}
	return reverse[d]
}

// rollLeg replaces an expired leg with the next street block.
func (m *Manhattan) rollLeg(l *manLeg) {
	at := m.intersection(l.ix, l.iy)
	d := m.nextDir(l.ix, l.iy, l.dir)
	nx, ny := stepIdx(l.ix, l.iy, d)
	l.origin = at
	l.dir = d
	l.ix, l.iy = nx, ny
	l.t0 = l.t1
	l.t1 = l.t0 + m.spacing/m.Mu
}

// AdvanceTo moves every node to time t.
func (m *Manhattan) AdvanceTo(t float64, pos []geom.Vec) {
	if t < m.now {
		panic("mobility: AdvanceTo moved backwards")
	}
	for i := range m.legs {
		l := &m.legs[i]
		for t >= l.t1 {
			m.rollLeg(l)
		}
		pos[i] = l.origin.Add(dirVec[l.dir].Scale(m.Mu * (t - l.t0)))
	}
	m.now = t
}

// Blocks reports the grid dimension K (blocks per axis), for tests.
func (m *Manhattan) Blocks() int { return m.k }
