package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// TestZooStaysInRegion: the zoo models never leave their domain —
// Gauss–Markov and hotspot stay inside the deployment disc, Manhattan
// inside the street grid's bounding square (its corner streets lie
// outside the disc proper by construction).
func TestZooStaysInRegion(t *testing.T) {
	d := testDisc()
	const eps = 1e-6
	t.Run("gauss-markov", func(t *testing.T) {
		g := NewGaussMarkov(d, 10, 0.75, 1, rng.New(41))
		pos := g.Init(32)
		for step := 1; step <= 400; step++ {
			g.AdvanceTo(float64(step)*0.5, pos)
			for i, p := range pos {
				if p.Dist(d.C) > d.R+eps {
					t.Fatalf("step %d node %d left the disc: %v", step, i, p)
				}
			}
		}
	})
	t.Run("hotspot", func(t *testing.T) {
		h := NewHotspot(d, 10, 5, 0, 0, rng.New(43))
		pos := h.Init(32)
		for step := 1; step <= 400; step++ {
			h.AdvanceTo(float64(step)*0.5, pos)
			for i, p := range pos {
				if p.Dist(d.C) > d.R+eps {
					t.Fatalf("step %d node %d left the disc: %v", step, i, p)
				}
			}
		}
	})
	t.Run("manhattan", func(t *testing.T) {
		m := NewManhattan(d, 10, 0, rng.New(47))
		pos := m.Init(32)
		side := float64(m.k) * m.spacing
		for step := 1; step <= 400; step++ {
			m.AdvanceTo(float64(step)*0.5, pos)
			for i, p := range pos {
				if p.X < m.min.X-eps || p.X > m.min.X+side+eps ||
					p.Y < m.min.Y-eps || p.Y > m.min.Y+side+eps {
					t.Fatalf("step %d node %d left the grid square: %v", step, i, p)
				}
			}
		}
	})
}

// TestZooGranularityIndependent: a zoo node's trajectory must not
// depend on the advance step size — one giant jump lands exactly where
// fine stepping does. A single node keeps the shared stream's draw
// order identical under both steppings (multi-node runs draw in
// time-interleaved call-pattern order by design, like the other
// models).
func TestZooGranularityIndependent(t *testing.T) {
	d := testDisc()
	cases := []struct {
		name string
		mk   func(seed uint64) Model
	}{
		{"gauss-markov", func(s uint64) Model { return NewGaussMarkov(d, 15, 0.75, 1, rng.New(s)) }},
		{"manhattan", func(s uint64) Model { return NewManhattan(d, 25, 0, rng.New(s)) }},
		{"hotspot", func(s uint64) Model { return NewHotspot(d, 25, 4, 0, 0, rng.New(s)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.mk(53)
			b := tc.mk(53)
			posA := a.Init(1)
			posB := b.Init(1)
			for step := 1; step <= 400; step++ {
				a.AdvanceTo(float64(step)*0.25, posA)
			}
			b.AdvanceTo(100, posB)
			if posA[0] != posB[0] {
				t.Fatalf("stepped %v != jumped %v", posA[0], posB[0])
			}
		})
	}
}

// TestZooDeterminism: same seed, same trajectory, for every zoo model,
// including multi-node runs (node-order draw discipline).
func TestZooDeterminism(t *testing.T) {
	d := testDisc()
	cases := []struct {
		name string
		mk   func(seed uint64) Model
	}{
		{"gauss-markov", func(s uint64) Model { return NewGaussMarkov(d, 10, 0.75, 1, rng.New(s)) }},
		{"manhattan", func(s uint64) Model { return NewManhattan(d, 10, 0, rng.New(s)) }},
		{"hotspot", func(s uint64) Model { return NewHotspot(d, 10, 5, 0, 0, rng.New(s)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.mk(59)
			b := tc.mk(59)
			posA := a.Init(24)
			posB := b.Init(24)
			for step := 1; step <= 100; step++ {
				tt := float64(step) * 0.7
				a.AdvanceTo(tt, posA)
				b.AdvanceTo(tt, posB)
				for i := range posA {
					if posA[i] != posB[i] {
						t.Fatalf("step %d node %d diverged: %v != %v", step, i, posA[i], posB[i])
					}
				}
			}
		})
	}
}

// TestGaussMarkovSpeedClamped pins the speed clamp: even with a
// pathologically large speed innovation no node moves more than
// Cap·dt per step. Without the clamp the Gaussian innovation has
// unbounded support and this test fails within a few epochs.
func TestGaussMarkovSpeedClamped(t *testing.T) {
	d := testDisc()
	g := NewGaussMarkov(d, 10, 0.75, 1, rng.New(61))
	g.SigmaS = 500 // innovations far beyond the cap on most epochs
	const n = 24
	pos := g.Init(n)
	vmax := g.Cap
	prev := make([]geom.Vec, n)
	copy(prev, pos)
	const dt = 0.5
	for step := 1; step <= 400; step++ {
		g.AdvanceTo(float64(step)*dt, pos)
		for i := 0; i < n; i++ {
			// Displacement is the integral of |V| over legs, so the cap
			// bounds it.
			if moved := pos[i].Dist(prev[i]); moved > vmax*dt*(1+1e-9) {
				t.Fatalf("step %d node %d moved %.4f > cap bound %.4f", step, i, moved, vmax*dt)
			}
			prev[i] = pos[i]
		}
	}
}

// TestManhattanOnStreet: every position a Manhattan node ever occupies
// lies exactly on a street — one coordinate a whole multiple of the
// spacing (up to float dust accumulated over a leg).
func TestManhattanOnStreet(t *testing.T) {
	d := testDisc()
	m := NewManhattan(d, 20, 0, rng.New(67))
	pos := m.Init(32)
	onStreet := func(p geom.Vec) bool {
		ux := (p.X - m.min.X) / m.spacing
		uy := (p.Y - m.min.Y) / m.spacing
		return math.Abs(ux-math.Round(ux)) < 1e-9*float64(m.k) ||
			math.Abs(uy-math.Round(uy)) < 1e-9*float64(m.k)
	}
	for i, p := range pos {
		if !onStreet(p) {
			t.Fatalf("node %d starts off-street: %v", i, p)
		}
	}
	for step := 1; step <= 400; step++ {
		m.AdvanceTo(float64(step)*0.37, pos)
		for i, p := range pos {
			if !onStreet(p) {
				t.Fatalf("step %d node %d off-street: %v", step, i, p)
			}
		}
	}
}

// TestManhattanBlockDefault: the zero block sentinel selects side/8
// (an 8×8 grid over the bounding square).
func TestManhattanBlockDefault(t *testing.T) {
	m := NewManhattan(testDisc(), 10, 0, rng.New(71))
	if m.Blocks() != 8 {
		t.Fatalf("default grid is %d blocks per axis, want 8", m.Blocks())
	}
}

// TestHotspotClustered: with dwell long relative to travel, most nodes
// sit inside a hotspot disc at any sampled instant, and every dwelling
// node (before its leg's departure) is exactly inside one. This pins the
// clustered spatial structure the model exists to produce.
func TestHotspotClustered(t *testing.T) {
	d := testDisc()
	// Travel across the disc takes ≤ 2000/100 = 20 s; mean dwell 60 s,
	// so in steady state dwellers dominate.
	h := NewHotspot(d, 100, 60, 5, 150, rng.New(73))
	const n = 48
	pos := h.Init(n)
	inSpot := func(p geom.Vec) bool {
		for _, c := range h.Centers() {
			if p.Dist(c) <= h.SpotRadius+1e-6 {
				return true
			}
		}
		return false
	}
	samples, inside := 0, 0
	for step := 1; step <= 200; step++ {
		h.AdvanceTo(float64(step)*1.5, pos)
		for i := 0; i < n; i++ {
			samples++
			if inSpot(pos[i]) {
				inside++
			}
			if h.now < h.legs[i].t0 && !inSpot(pos[i]) {
				t.Fatalf("step %d node %d dwells outside every hotspot: %v", step, i, pos[i])
			}
		}
	}
	if frac := float64(inside) / float64(samples); frac < 0.5 {
		t.Fatalf("only %.1f%% of samples inside a hotspot, want a clustered majority", 100*frac)
	}
}
