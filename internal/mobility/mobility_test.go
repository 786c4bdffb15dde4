package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func testDisc() geom.Disc { return geom.Disc{R: 1000} }

func TestWaypointStaysInRegion(t *testing.T) {
	d := testDisc()
	w := NewWaypoint(d, 10, rng.New(1))
	pos := w.Init(100)
	for step := 1; step <= 500; step++ {
		w.AdvanceTo(float64(step), pos)
		for i, p := range pos {
			if !d.Contains(p) {
				t.Fatalf("step %d: node %d at %v escaped region", step, i, p)
			}
		}
	}
}

func TestWaypointSpeedExact(t *testing.T) {
	// Between waypoint arrivals, displacement per unit time must be
	// exactly mu. Sample with a fine dt and check |Δp|/dt <= mu, with
	// equality when no waypoint was reached inside the interval.
	d := testDisc()
	mu := 7.0
	w := NewWaypoint(d, mu, rng.New(2))
	const n = 50
	pos := w.Init(n)
	prev := make([]geom.Vec, n)
	copy(prev, pos)
	const dt = 0.25
	atSpeed := 0
	total := 0
	for step := 1; step <= 2000; step++ {
		w.AdvanceTo(float64(step)*dt, pos)
		for i := range pos {
			v := pos[i].Dist(prev[i]) / dt
			if v > mu*(1+1e-9) {
				t.Fatalf("node %d moved at %v > mu %v", i, v, mu)
			}
			total++
			if math.Abs(v-mu) < 1e-9 {
				atSpeed++
			}
		}
		copy(prev, pos)
	}
	// The vast majority of intervals contain no waypoint arrival.
	if frac := float64(atSpeed) / float64(total); frac < 0.95 {
		t.Fatalf("only %.3f of intervals at exact speed", frac)
	}
}

func TestWaypointDeterminism(t *testing.T) {
	d := testDisc()
	run := func() []geom.Vec {
		w := NewWaypoint(d, 12, rng.New(42))
		pos := w.Init(30)
		for s := 1; s <= 100; s++ {
			w.AdvanceTo(float64(s), pos)
		}
		return pos
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWaypointBackwardsPanics(t *testing.T) {
	w := NewWaypoint(testDisc(), 5, rng.New(3))
	pos := w.Init(1)
	w.AdvanceTo(10, pos)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	w.AdvanceTo(5, pos)
}

func TestWaypointPause(t *testing.T) {
	d := testDisc()
	w := NewWaypoint(d, 1000, rng.New(4)) // fast: reaches waypoints quickly
	w.Pause = 5
	pos := w.Init(20)
	// With a large pause and high speed, nodes spend most time parked;
	// verify at least some node is exactly at its leg origin at some
	// sampled instant (i.e. pausing works and position is stable).
	stable := 0
	prev := make([]geom.Vec, len(pos))
	for s := 1; s <= 400; s++ {
		copy(prev, pos)
		w.AdvanceTo(float64(s)*0.5, pos)
		for i := range pos {
			if pos[i] == prev[i] {
				stable++
			}
		}
	}
	if stable == 0 {
		t.Fatal("no paused intervals observed with Pause=5")
	}
}

func TestWaypointLongHorizonSkip(t *testing.T) {
	// Jumping far ahead in one call must land inside the region and
	// remain deterministic with respect to fine-grained stepping of a
	// separate identical model? (Not required: consuming randomness
	// differs.) We only require region containment and no panic.
	d := testDisc()
	w := NewWaypoint(d, 20, rng.New(5))
	pos := w.Init(10)
	w.AdvanceTo(1e5, pos)
	for i, p := range pos {
		if !d.Contains(p) {
			t.Fatalf("node %d escaped after long skip: %v", i, p)
		}
	}
}

func TestRandomDirectionStaysInRegion(t *testing.T) {
	d := testDisc()
	m := NewRandomDirection(d, 15, 30, rng.New(6))
	pos := m.Init(60)
	for s := 1; s <= 1000; s++ {
		m.AdvanceTo(float64(s), pos)
		for i, p := range pos {
			if !d.Contains(p) {
				t.Fatalf("step %d: node %d at %v outside", s, i, p)
			}
		}
	}
}

func TestRandomDirectionMoves(t *testing.T) {
	d := testDisc()
	m := NewRandomDirection(d, 15, 30, rng.New(7))
	pos := m.Init(10)
	start := make([]geom.Vec, len(pos))
	copy(start, pos)
	m.AdvanceTo(100, pos)
	moved := 0
	for i := range pos {
		if pos[i].Dist(start[i]) > 1 {
			moved++
		}
	}
	if moved < 8 {
		t.Fatalf("only %d/10 nodes moved", moved)
	}
}

func TestStationary(t *testing.T) {
	d := testDisc()
	m := NewStationary(d, rng.New(8))
	pos := m.Init(25)
	orig := make([]geom.Vec, len(pos))
	copy(orig, pos)
	m.AdvanceTo(1000, pos)
	for i := range pos {
		if pos[i] != orig[i] {
			t.Fatalf("stationary node %d moved", i)
		}
		if !d.Contains(pos[i]) {
			t.Fatalf("stationary node %d outside region", i)
		}
	}
	if m.Speed() != 0 {
		t.Fatalf("stationary speed = %v", m.Speed())
	}
}

func TestWaypointMeanDisplacementMatchesMu(t *testing.T) {
	// Over a long window the path length per node equals mu*T; sampled
	// displacement integrated over fine steps approximates it.
	d := testDisc()
	mu := 10.0
	w := NewWaypoint(d, mu, rng.New(9))
	const n = 40
	pos := w.Init(n)
	prev := make([]geom.Vec, n)
	copy(prev, pos)
	var pathLen float64
	const dt = 0.5
	const T = 500.0
	for s := 1; float64(s)*dt <= T; s++ {
		w.AdvanceTo(float64(s)*dt, pos)
		for i := range pos {
			pathLen += pos[i].Dist(prev[i])
		}
		copy(prev, pos)
	}
	perNodeRate := pathLen / n / T
	// Sampling under-counts slightly at waypoint turns; allow 3%.
	if perNodeRate < mu*0.97 || perNodeRate > mu*1.001 {
		t.Fatalf("measured path rate %v, want ~%v", perNodeRate, mu)
	}
}

func BenchmarkWaypointAdvance1000(b *testing.B) {
	d := testDisc()
	w := NewWaypoint(d, 10, rng.New(1))
	pos := w.Init(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.AdvanceTo(float64(i+1), pos)
	}
}

func TestGroupMobilityStaysInRegion(t *testing.T) {
	d := testDisc()
	m := NewGroupMobility(d, 10, 120, 16, rng.New(31))
	pos := m.Init(100)
	for s := 1; s <= 400; s++ {
		m.AdvanceTo(float64(s), pos)
		for i, p := range pos {
			if !d.Contains(p) {
				t.Fatalf("step %d: node %d at %v outside", s, i, p)
			}
		}
	}
}

func TestGroupMobilityCohesion(t *testing.T) {
	// Members stay within ~2*GroupRadius of their group mates (ref
	// offset is bounded by the radius on both sides).
	d := testDisc()
	const radius = 100.0
	m := NewGroupMobility(d, 10, radius, 10, rng.New(32))
	pos := m.Init(60)
	for s := 1; s <= 200; s++ {
		m.AdvanceTo(float64(s), pos)
	}
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if m.GroupOf(i) != m.GroupOf(j) {
				continue
			}
			if dd := pos[i].Dist(pos[j]); dd > 2*radius+1e-6 {
				t.Fatalf("groupmates %d,%d separated by %v", i, j, dd)
			}
		}
	}
}

func TestGroupMobilityGroupsMove(t *testing.T) {
	d := testDisc()
	m := NewGroupMobility(d, 15, 80, 12, rng.New(33))
	pos := m.Init(48)
	start := append([]geom.Vec(nil), pos...)
	m.AdvanceTo(120, pos)
	moved := 0
	for i := range pos {
		if pos[i].Dist(start[i]) > 50 {
			moved++
		}
	}
	if moved < 40 {
		t.Fatalf("only %d/48 nodes moved substantially", moved)
	}
}

func TestGroupMobilityDeterminism(t *testing.T) {
	d := testDisc()
	run := func() []geom.Vec {
		m := NewGroupMobility(d, 10, 100, 8, rng.New(34))
		pos := m.Init(32)
		for s := 1; s <= 60; s++ {
			m.AdvanceTo(float64(s), pos)
		}
		return pos
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d diverged", i)
		}
	}
}

// TestRandomDirectionBoundaryExactHeadingChange pins behavior when a
// heading change lands exactly on an advance boundary: the node must
// arrive at the expiry point under the old heading and depart it under
// the new one, with no zero-step stall (regression for the dead
// `continue` in the old step-granularity loop).
func TestRandomDirectionBoundaryExactHeadingChange(t *testing.T) {
	d := testDisc()
	r := NewRandomDirection(d, 10, 5, rng.New(7))
	pos := r.Init(3)
	for k := 0; k < 200; k++ {
		l := r.legs[0]
		if l.t1 < l.until {
			// This leg ends in a boundary reflection; consume it and
			// keep looking for a heading expiry.
			r.AdvanceTo(l.t1, pos)
			continue
		}
		// l.t1 == l.until: a heading expiry. Advance EXACTLY onto it.
		arrive := l.posAt(r.Mu, l.t1)
		r.AdvanceTo(l.t1, pos)
		if pos[0] != arrive {
			t.Fatalf("position at exact expiry: got %v want %v", pos[0], arrive)
		}
		nl := r.legs[0]
		if nl.t0 != l.t1 || nl.origin != arrive {
			t.Fatalf("fresh leg must start at the expiry instant: t0=%v origin=%v (want %v at %v)",
				nl.t0, nl.origin, arrive, l.t1)
		}
		if nl.dir == l.dir {
			t.Fatalf("heading did not change at expiry")
		}
		// Departing the boundary instant must follow the NEW heading.
		dt := math.Min(0.25, (nl.t1-nl.t0)/2)
		if dt <= 0 {
			t.Fatalf("fresh leg has no extent: t0=%v t1=%v", nl.t0, nl.t1)
		}
		r.AdvanceTo(l.t1+dt, pos)
		want := arrive.Add(nl.dir.Scale(r.Mu * dt))
		if pos[0].Dist(want) > 1e-9 {
			t.Fatalf("position after exact-boundary heading change: got %v want %v", pos[0], want)
		}
		return
	}
	t.Fatalf("no heading expiry found in 200 legs")
}

// TestRandomDirectionGranularityIndependent asserts a node's
// trajectory no longer depends on the advance step size (the old
// integrator reflected at step ends, so finer stepping changed where
// reflections landed). A single node is used so the shared stream's
// draw order is the same under any stepping; multi-node runs draw in
// (time-interleaved) call-pattern order by design.
func TestRandomDirectionGranularityIndependent(t *testing.T) {
	d := testDisc()
	a := NewRandomDirection(d, 25, 3, rng.New(11))
	b := NewRandomDirection(d, 25, 3, rng.New(11))
	posA := a.Init(1)
	posB := b.Init(1)
	for step := 1; step <= 400; step++ {
		a.AdvanceTo(float64(step)*0.25, posA)
	}
	b.AdvanceTo(100, posB)
	if posA[0] != posB[0] {
		t.Fatalf("stepped %v != jumped %v", posA[0], posB[0])
	}
}

// TestGroupMobilityBoundedStep is the regression for the boundary
// clamping bug: in a region smaller than 2·GroupRadius the reference
// region used to keep its full radius, so members clamped against the
// disc boundary every advance and apparent speeds exceeded Mu+MemberMu.
func TestGroupMobilityBoundedStep(t *testing.T) {
	d := geom.Disc{R: 150} // R < 2·GroupRadius: the old code never shrank
	g := NewGroupMobility(d, 10, 200, 8, rng.New(3))
	pos := g.Init(32)
	prev := make([]geom.Vec, len(pos))
	copy(prev, pos)
	const dt = 1.0
	bound := (g.Mu + g.MemberMu) * dt * (1 + 1e-9)
	for step := 1; step <= 300; step++ {
		g.AdvanceTo(float64(step)*dt, pos)
		for i, p := range pos {
			if moved := p.Dist(prev[i]); moved > bound {
				t.Fatalf("step %d node %d moved %.6f > bound %.6f", step, i, moved, bound)
			}
			if !d.Contains(p) {
				t.Fatalf("step %d node %d left the region: %v", step, i, p)
			}
			prev[i] = p
		}
	}
}

// TestWaypointPauseTable is the table-driven Pause > 0 coverage:
// position during the pause window, rollover across multiple expired
// legs in a single AdvanceTo, and AdvanceTo called twice at the same t.
func TestWaypointPauseTable(t *testing.T) {
	d := testDisc()
	cases := []struct {
		name      string
		mu, pause float64
		n         int
	}{
		{"short-pause", 20, 1.5, 16},
		{"long-pause", 5, 40, 16},
		{"pause-dominates-travel", 200, 10, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/position-during-pause", func(t *testing.T) {
			w := NewWaypoint(d, tc.mu, rng.New(5))
			w.Pause = tc.pause
			pos := w.Init(tc.n)
			start := make([]geom.Vec, tc.n)
			copy(start, pos)
			// Initial legs depart at t = Pause: every instant before
			// that must hold the initial position exactly.
			for _, frac := range []float64{0.1, 0.5, 0.999} {
				w.AdvanceTo(frac*tc.pause, pos)
				for i, p := range pos {
					if p != start[i] {
						t.Fatalf("node %d moved during pause at t=%.3f: %v != %v",
							i, frac*tc.pause, p, start[i])
					}
				}
			}
			// After departure the node must have left the waypoint.
			w.AdvanceTo(tc.pause+0.5, pos)
			moved := 0
			for i, p := range pos {
				if p != start[i] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("no node departed after the pause expired")
			}
		})
		t.Run(tc.name+"/multi-leg-rollover", func(t *testing.T) {
			// One giant jump must cross many (leg+pause) cycles and
			// land byte-identically to a finely stepped twin. A single
			// node keeps the shared stream's draw order identical
			// under both steppings (per-leg, in time order).
			a := NewWaypoint(d, tc.mu, rng.New(9))
			a.Pause = tc.pause
			b := NewWaypoint(d, tc.mu, rng.New(9))
			b.Pause = tc.pause
			posA := a.Init(1)
			posB := b.Init(1)
			const horizon = 1000.0
			a.AdvanceTo(horizon, posA)
			for step := 1; step <= 2000; step++ {
				b.AdvanceTo(float64(step)*horizon/2000, posB)
			}
			if posA[0] != posB[0] {
				t.Fatalf("jumped %v != stepped %v", posA[0], posB[0])
			}
		})
		t.Run(tc.name+"/advance-twice-same-t", func(t *testing.T) {
			w := NewWaypoint(d, tc.mu, rng.New(13))
			w.Pause = tc.pause
			twin := NewWaypoint(d, tc.mu, rng.New(13))
			twin.Pause = tc.pause
			pos := w.Init(tc.n)
			posT := twin.Init(tc.n)
			// Land exactly on a leg boundary for node 0 so the repeat
			// call exercises the just-rolled state.
			tEdge := w.legs[0].t1
			w.AdvanceTo(tEdge, pos)
			first := make([]geom.Vec, tc.n)
			copy(first, pos)
			w.AdvanceTo(tEdge, pos)
			for i := range pos {
				if pos[i] != first[i] {
					t.Fatalf("node %d drifted on repeated AdvanceTo(%v)", i, tEdge)
				}
			}
			// The repeat call must not consume randomness: a twin that
			// advanced once must stay in lockstep afterwards.
			twin.AdvanceTo(tEdge, posT)
			w.AdvanceTo(tEdge+123, pos)
			twin.AdvanceTo(tEdge+123, posT)
			for i := range pos {
				if pos[i] != posT[i] {
					t.Fatalf("node %d: repeated same-t advance perturbed the RNG", i)
				}
			}
		})
	}
}
