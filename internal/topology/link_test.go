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
