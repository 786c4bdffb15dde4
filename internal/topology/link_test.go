package topology

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// lossyFixture builds a grid sized for the model's candidate radius
// with every node inserted.
func lossyFixture(n int, pos []geom.Vec, radius float64) *spatial.Grid {
	idx := spatial.NewGridForDisc(geom.Disc{R: 500}, radius, n)
	for i, p := range pos {
		idx.Insert(i, p)
	}
	return idx
}

// TestLogShadowThresholdsSymmetricDeterministic: the per-pair
// shadowing draw is a pure function of (model seed, canonical pair
// key) — symmetric in the pair, identical across model instances with
// the same seed, and different across seeds.
func TestLogShadowThresholdsSymmetricDeterministic(t *testing.T) {
	a := NewLogShadow(100, 3, 4, 3, 42)
	b := NewLogShadow(100, 3, 4, 3, 42)
	other := NewLogShadow(100, 3, 4, 3, 43)
	distinct := false
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			mkIJ, brIJ := a.Thresholds(i, j)
			mkJI, brJI := a.Thresholds(j, i)
			if mkIJ != mkJI || brIJ != brJI {
				t.Fatalf("pair (%d,%d): asymmetric thresholds %v/%v vs %v/%v",
					i, j, mkIJ, brIJ, mkJI, brJI)
			}
			mkB, brB := b.Thresholds(i, j)
			if mkIJ != mkB || brIJ != brB {
				t.Fatalf("pair (%d,%d): same seed, different thresholds", i, j)
			}
			if mkIJ >= brIJ {
				t.Fatalf("pair (%d,%d): d_make %v >= d_break %v (margin 3 dB)", i, j, mkIJ, brIJ)
			}
			if brIJ > a.Radius()*(1+1e-12) {
				t.Fatalf("pair (%d,%d): d_break %v exceeds candidate radius %v", i, j, brIJ, a.Radius())
			}
			if mkO, _ := other.Thresholds(i, j); mkO != mkIJ {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatal("different seeds produced identical shadowing for every pair")
	}
}

// TestLogShadowZeroMarginZeroSigmaIsUnitDisk: with shadowing and
// hysteresis off, the lossy model degenerates to the exact unit-disk
// predicate — byte-identical graphs on any layout.
func TestLogShadowZeroMarginZeroSigmaIsUnitDisk(t *testing.T) {
	const n, rtx = 150, 90.0
	pos := layout(n, 500, 17)
	idx := lossyFixture(n, pos, rtx)
	m := NewLogShadow(rtx, 3, 0, 0, 7)
	if m.Radius() != rtx {
		t.Fatalf("degenerate radius %v, want %v", m.Radius(), rtx)
	}
	got := m.BuildInto(nil, n, pos, idx, nil, nil)
	want := buildUnitDisk(n, pos, rtx, idx)
	graphsIdentical(t, want, got)
}

// TestLogShadowNoFlap walks one pair through the hysteresis state
// machine: link up requires closing below d_make; once up it survives
// anywhere below d_break (including the dead band where it would
// re-form if probed fresh — and where a marginless model flaps); it
// drops only beyond d_break, and stays down back in the dead band.
func TestLogShadowNoFlap(t *testing.T) {
	const rtx = 100.0
	m := NewLogShadow(rtx, 3, 4, 3, 99)
	dMake, dBreak := m.Thresholds(0, 1)
	mid := (dMake + dBreak) / 2 // strictly inside the dead band

	pos := []geom.Vec{{}, {X: dBreak * 1.05}}
	idx := lossyFixture(2, pos, m.Radius())
	scan := func(d float64) bool {
		pos[1] = geom.Vec{X: d}
		idx.Update(1, pos[1])
		g := m.BuildInto(nil, 2, pos, idx, nil, nil)
		return g.EdgeCount() == 1
	}

	steps := []struct {
		name string
		d    float64
		up   bool
	}{
		{"start beyond break", dBreak * 1.05, false},
		{"dead band while down stays down", mid, false},
		{"dead band again (no flap up)", mid * 0.999, false},
		{"below make forms", dMake * 0.95, true},
		{"dead band while up stays up", mid, true},
		{"straddling jitter +", mid * 1.001, true},
		{"straddling jitter -", mid * 0.999, true},
		{"beyond break drops", dBreak * 1.05, false},
		{"dead band after drop stays down", mid, false},
	}
	for _, s := range steps {
		if up := scan(s.d); up != s.up {
			t.Fatalf("%s: at d=%.3f (make %.3f break %.3f) link up=%v, want %v",
				s.name, s.d, dMake, dBreak, up, s.up)
		}
	}
}

// TestLogShadowFreshVsReuse: building into recycled storage must be
// byte-identical to fresh allocation at every tick, with the model's
// hysteresis state evolving identically (twin models, same seed, same
// motion).
func TestLogShadowFreshVsReuse(t *testing.T) {
	const n, rtx = 120, 90.0
	fresh := NewLogShadow(rtx, 3, 4, 3, 11)
	reuse := NewLogShadow(rtx, 3, 4, 3, 11)
	pos := layout(n, 500, 23)
	idx := lossyFixture(n, pos, fresh.Radius())
	src := rng.New(31)
	var spare *Graph
	for tick := 0; tick < 6; tick++ {
		for i := range pos {
			pos[i].X += src.Range(-15, 15)
			pos[i].Y += src.Range(-15, 15)
			idx.Update(i, pos[i])
		}
		want := fresh.BuildInto(nil, n, pos, idx, nil, nil)
		spare = reuse.BuildInto(spare, n, pos, idx, nil, nil)
		graphsIdentical(t, want, spare)
	}
}

// TestLogShadowParMatchesSerial: the sharded build must match the
// serial one byte-for-byte at every tick for every worker count, with
// hysteresis state staying in lockstep (the parallel build reads a
// frozen state snapshot and refreshes it from the same finished edge
// set).
func TestLogShadowParMatchesSerial(t *testing.T) {
	const n, rtx = 150, 90.0
	serialM := NewLogShadow(rtx, 3, 4, 3, 13)
	workers := []int{2, 3, 8}
	parMs := make([]*LogShadow, len(workers))
	pools := make([]*par.Pool, len(workers))
	for i, w := range workers {
		parMs[i] = NewLogShadow(rtx, 3, 4, 3, 13)
		pools[i] = par.NewPool(w)
		defer pools[i].Close()
	}
	pos := layout(n, 500, 29)
	idx := lossyFixture(n, pos, serialM.Radius())
	src := rng.New(37)
	scratches := make([]BuildScratch, len(workers))
	for tick := 0; tick < 5; tick++ {
		for i := range pos {
			pos[i].X += src.Range(-15, 15)
			pos[i].Y += src.Range(-15, 15)
			idx.Update(i, pos[i])
		}
		serial := serialM.BuildInto(nil, n, pos, idx, nil, nil)
		for i := range workers {
			parg := parMs[i].BuildInto(nil, n, pos, idx, pools[i], &scratches[i])
			graphsIdentical(t, serial, parg)
		}
	}
}

// TestLogShadowHysteresisWidensOverMarginless: relative to a
// zero-margin twin, hysteresis only ever disagrees inside the dead
// band, and there only by keeping stale state (links it formed earlier
// that the marginless predicate would now drop, or vice versa) — the
// candidate radius still bounds everything.
func TestLogShadowHysteresisWidensOverMarginless(t *testing.T) {
	const rtx = 100.0
	m := NewLogShadow(rtx, 3, 4, 6, 5)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			dMake, dBreak := m.Thresholds(i, j)
			want := math.Pow(10, 6.0/(10*3)) // 10^(M/(10η))
			if got := dBreak / dMake; math.Abs(got-want) > 1e-9 {
				t.Fatalf("pair (%d,%d): dead-band ratio %v, want %v", i, j, got, want)
			}
		}
	}
}

// quickModels are the parameter sets the quick predicate is checked
// on: the simulator's default, σ = 0 (no draw at all), M = 0 (make and
// break coincide), path-loss exponents other than 3, a wide σ whose
// thresholds move several ulps between adjacent floats of the draw,
// and a σ so wide that Exp overflows and no node may decide.
var quickModels = []struct {
	name                 string
	eta, sigma, marginDB float64
}{
	{"default", 3, 4, 3},
	{"sigma0", 3, 0, 3},
	{"margin0", 3, 4, 0},
	{"eta2.5", 2.5, 6, 4},
	{"eta4", 4, 8, 2},
	{"sigma30", 2.5, 30, 6},
	{"sigma2000", 3, 2000, 3},
}

// quickAgrees fails t unless the quick predicate equals the exact one
// for pair k at d2 in both hysteresis states.
func quickAgrees(t *testing.T, m *LogShadow, d2 float64, k EdgeKey) {
	t.Helper()
	for _, linked := range []bool{false, true} {
		m.linked = m.linked[:0]
		if linked {
			m.linked = append(m.linked, k)
		}
		if got, want := m.up(d2, k), m.upExact(d2, k, linked); got != want {
			t.Fatalf("key %#x d2=%v (%#x) linked=%v: quick %v, exact %v (thresholds %+v)",
				uint64(k), d2, math.Float64bits(d2), linked, got, want, m.exact(k))
		}
	}
}

// TestLogShadowQuickMatchesExact: the quick predicate decides every
// pair as the exact one does — over random keys and distances, and
// for distances within a few ulps of each pair's own make and break
// thresholds, computed as the exact predicate computes them.
func TestLogShadowQuickMatchesExact(t *testing.T) {
	const rtx, keys, nearKeys, ulps = 100.0, 1 << 18, 1 << 12, 4
	for i, mc := range quickModels {
		t.Run(mc.name, func(t *testing.T) {
			m := NewLogShadow(rtx, mc.eta, mc.sigma, mc.marginDB, uint64(i)+3)
			src := rng.New(uint64(i) + 61)
			key := func() EdgeKey { return MakeEdgeKey(src.Intn(1<<31), 1<<31+src.Intn(1<<31)) }
			r2 := math.Min(m.Radius()*m.Radius(), 1e300)
			for j := 0; j < keys; j++ {
				quickAgrees(t, m, src.Range(0, 1.1*r2), key())
			}
			for j := 0; j < nearKeys; j++ {
				k := key()
				th := m.exact(k)
				for _, x := range []float64{th.mk, th.br} {
					lo, hi := x, x
					for s := 0; s <= ulps; s++ {
						quickAgrees(t, m, lo, k)
						quickAgrees(t, m, hi, k)
						lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
					}
				}
			}
		})
	}
}

// TestLogShadowBoundsBracketDraw: the table nodes shadowRange picks
// for a polar point bound the exact thresholds of the normal Norm makes
// of it, which is what makes every quick decision exact. Besides
// random points this probes r within 2⁻³⁰…2⁻⁵⁰ of 1, where the log
// bounds are tight below an ulp, with draws up to 2⁻⁵⁰ either side of
// each table node: a draw just below a node can round onto it when its
// index is taken, and there only the table's margin keeps the bounds.
func TestLogShadowBoundsBracketDraw(t *testing.T) {
	const rtx = 100.0
	for i, mc := range quickModels {
		if mc.sigma <= 0 {
			continue
		}
		t.Run(mc.name, func(t *testing.T) {
			m := NewLogShadow(rtx, mc.eta, mc.sigma, mc.marginDB, 5)
			check := func(u, r float64) {
				t.Helper()
				// The draw as rng.Source.Norm makes it, clamped and
				// carried to thresholds as LogShadow.exact does.
				z := u * math.Sqrt(-2*math.Log(r)/r)
				z = math.Max(-shadowClamp, math.Min(shadowClamp, z))
				e := m.rtx2 * math.Exp(m.dscale*(z*m.sigma))
				mk, br := e/m.mHi, e*m.mHi
				lo, hi := shadowRange(u, r)
				l, h := m.lower[lo], m.upper[hi]
				if l.mk > mk || l.br > br || h.mk < mk || h.br < br {
					t.Fatalf("u=%v r=%v z=%v: nodes %d..%d bound make %v..%v, break %v..%v; exact make %v, break %v",
						u, r, z, lo, hi, l.mk, h.mk, l.br, h.br, mk, br)
				}
			}
			src := rng.New(uint64(i) + 71)
			for j := 0; j < 1<<16; j++ {
				u, _, r := src.Polar()
				check(u, r)
			}
			for _, r := range []float64{1 - 0x1p-30, 1 - 0x1p-40, 1 - 0x1p-50} {
				f := math.Sqrt(-2 * math.Log(r) / r)
				for j := 0; j < shadowNodes; j++ {
					zj := float64(j)/shadowSteps - shadowClamp
					for d := -16; d <= 16; d++ {
						u := (zj + float64(d)*0x1p-54) / f
						if math.Abs(u) >= 1 {
							continue
						}
						check(math.Nextafter(u, math.Inf(-1)), r)
						check(u, r)
						check(math.Nextafter(u, math.Inf(1)), r)
					}
				}
			}
		})
	}
}
