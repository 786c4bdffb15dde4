package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWelfordAgainstNaive(t *testing.T) {
	src := rng.New(1)
	var w Welford
	var xs []float64
	for i := 0; i < 10000; i++ {
		x := src.Norm()*3 + 7
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-6 {
		t.Fatalf("variance %v vs %v", w.Variance(), variance)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford not zeroed")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatalf("single obs: mean %v var %v", w.Mean(), w.Variance())
	}
}

func TestWelfordMerge(t *testing.T) {
	src := rng.New(2)
	var all, a, b Welford
	for i := 0; i < 5000; i++ {
		x := src.Float64() * 100
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-6 {
		t.Fatalf("merged variance %v vs %v", a.Variance(), all.Variance())
	}
	// Merging into empty copies.
	var empty Welford
	empty.Merge(all)
	if empty.Mean() != all.Mean() || empty.N() != all.N() {
		t.Fatal("merge into empty broken")
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var whole, left, right Welford
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			x = math.Mod(x, 1e6)
			whole.Add(x)
			if i < len(xs)/2 {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(right)
		return left.N() == whole.N() &&
			math.Abs(left.Mean()-whole.Mean()) < 1e-6 &&
			math.Abs(left.Variance()-whole.Variance()) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPerLevel(t *testing.T) {
	var p PerLevel
	p.Add(2, 10)
	p.Add(2, 20)
	p.Add(0, 1)
	if p.Max() != 2 {
		t.Fatalf("Max = %d", p.Max())
	}
	if got := p.Level(2).Mean(); got != 15 {
		t.Fatalf("level-2 mean = %v", got)
	}
	if got := p.Level(1).N(); got != 0 {
		t.Fatalf("level-1 N = %d", got)
	}
	if got := p.Level(9).N(); got != 0 {
		t.Fatalf("absent level N = %d", got)
	}
}

// --- fit tests ---

func genSeries(f func(n float64) float64) (ns, ys []float64) {
	for _, n := range []float64{64, 128, 256, 512, 1024, 2048, 4096} {
		ns = append(ns, n)
		ys = append(ys, f(n))
	}
	return
}

func TestFitRecoversLog2(t *testing.T) {
	ns, ys := genSeries(func(n float64) float64 {
		l := math.Log(n)
		return 3 + 0.7*l*l
	})
	f, err := FitModel(ModelLog2, ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-3) > 1e-6 || math.Abs(f.B-0.7) > 1e-6 {
		t.Fatalf("recovered a=%v b=%v", f.A, f.B)
	}
	if f.R2 < 0.999999 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestFitRecoversPower(t *testing.T) {
	ns, ys := genSeries(func(n float64) float64 { return 2 * math.Pow(n, 0.5) })
	f, err := FitModel(ModelPower, ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.B-0.5) > 1e-9 {
		t.Fatalf("exponent = %v", f.B)
	}
	if math.Abs(f.Eval(256)-2*16) > 1e-6 {
		t.Fatalf("Eval(256) = %v", f.Eval(256))
	}
}

func TestFitAllPrefersTrueModel(t *testing.T) {
	// Pure log² data: the log² model must beat sqrt and linear.
	ns, ys := genSeries(func(n float64) float64 {
		l := math.Log(n)
		return 0.5 * l * l
	})
	fits := FitAll(ns, ys)
	if len(fits) < 4 {
		t.Fatalf("only %d fits", len(fits))
	}
	rank := map[Model]int{}
	for i, f := range fits {
		rank[f.Model] = i
	}
	if rank[ModelLog2] > rank[ModelSqrt] || rank[ModelLog2] > rank[ModelLinear] {
		t.Fatalf("log² ranked %d, sqrt %d, linear %d", rank[ModelLog2], rank[ModelSqrt], rank[ModelLinear])
	}
	// And the converse: sqrt data is not best-fit by log².
	ns2, ys2 := genSeries(func(n float64) float64 { return 2 * math.Sqrt(n) })
	fits2 := FitAll(ns2, ys2)
	if fits2[0].Model == ModelLog2 {
		t.Fatal("log² spuriously won on √N data")
	}
}

func TestPowerExponentDiscriminates(t *testing.T) {
	// Polylog data yields a small exponent; linear data yields ~1.
	ns, ys := genSeries(func(n float64) float64 {
		l := math.Log(n)
		return l * l
	})
	p, err := PowerExponent(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.45 {
		t.Fatalf("polylog exponent = %v, want small", p)
	}
	ns2, ys2 := genSeries(func(n float64) float64 { return 3 * n })
	p2, _ := PowerExponent(ns2, ys2)
	if math.Abs(p2-1) > 1e-9 {
		t.Fatalf("linear exponent = %v", p2)
	}
}

func TestFitModelErrors(t *testing.T) {
	if _, err := FitModel(ModelLog2, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("too few points accepted")
	}
	if _, err := FitModel(ModelPower, []float64{1, 2, 3}, []float64{1, 0, 2}); err == nil {
		t.Fatal("power fit accepted non-positive y")
	}
	if _, err := FitModel(ModelLog, []float64{-1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("non-positive N accepted")
	}
	if _, err := FitModel(Model("bogus"), []float64{1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestFitRejectsNonFinite is the regression test for NaN poisoning:
// one non-finite sample used to flow through the OLS sums, leave RMSE
// NaN on every model, and let sort.Slice order FitAll's report
// arbitrarily. Non-finite inputs are now rejected per model, so FitAll
// deterministically returns no fits (and never a non-finite RMSE).
func TestFitRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		ns, ys []float64
	}{
		{"nan-y", []float64{64, 128, 256, 512}, []float64{1, nan, 3, 4}},
		{"inf-y", []float64{64, 128, 256, 512}, []float64{1, math.Inf(1), 3, 4}},
		{"neg-inf-y", []float64{64, 128, 256, 512}, []float64{1, math.Inf(-1), 3, 4}},
		{"nan-n", []float64{64, nan, 256, 512}, []float64{1, 2, 3, 4}},
		{"inf-n", []float64{64, math.Inf(1), 256, 512}, []float64{1, 2, 3, 4}},
	}
	for _, tc := range cases {
		for _, m := range []Model{ModelLog2, ModelLog, ModelSqrt, ModelLinear, ModelPower} {
			if _, err := FitModel(m, tc.ns, tc.ys); err == nil {
				t.Errorf("%s: model %s accepted non-finite input", tc.name, m)
			}
		}
		fits := FitAll(tc.ns, tc.ys)
		if len(fits) != 0 {
			t.Errorf("%s: FitAll returned %d fits on non-finite data", tc.name, len(fits))
		}
		for _, f := range fits {
			if math.IsNaN(f.RMSE) || math.IsInf(f.RMSE, 0) {
				t.Errorf("%s: non-finite RMSE %v escaped for model %s", tc.name, f.RMSE, f.Model)
			}
		}
	}
}

// TestFitAllOrderDeterministic pins FitAll's report ordering: repeated
// calls on identical data must agree fit-for-fit, and RMSE must be
// ascending over the finite prefix.
func TestFitAllOrderDeterministic(t *testing.T) {
	ns := []float64{64, 128, 256, 512, 1024}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		l := math.Log(n)
		ys[i] = 0.3 + 0.05*l*l
	}
	first := FitAll(ns, ys)
	if len(first) == 0 {
		t.Fatal("no fits")
	}
	for i := 1; i < len(first); i++ {
		if first[i].RMSE < first[i-1].RMSE {
			t.Fatalf("RMSE not ascending: %v then %v", first[i-1], first[i])
		}
	}
	for trial := 0; trial < 10; trial++ {
		again := FitAll(ns, ys)
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d fits vs %d", trial, len(again), len(first))
		}
		for i := range first {
			if again[i].Model != first[i].Model {
				t.Fatalf("trial %d: order differs at %d: %s vs %s",
					trial, i, again[i].Model, first[i].Model)
			}
		}
	}
}

// TestFitDegenerateSingleN is the regression test for fits over a
// sweep with one distinct N: these used to return NaN R² or garbage
// slopes from a near-zero OLS denominator; now every model reports
// ErrDegenerate and FitAll returns no fits.
func TestFitDegenerateSingleN(t *testing.T) {
	ns := []float64{128, 128, 128, 128}
	ys := []float64{1.0, 1.1, 0.9, 1.05}
	for _, m := range []Model{ModelLog2, ModelLog, ModelSqrt, ModelLinear, ModelPower} {
		_, err := FitModel(m, ns, ys)
		if !errors.Is(err, ErrDegenerate) {
			t.Fatalf("model %s: err = %v, want ErrDegenerate", m, err)
		}
	}
	if fits := FitAll(ns, ys); len(fits) != 0 {
		t.Fatalf("FitAll returned %d fits on degenerate data", len(fits))
	}
	if _, err := PowerExponent(ns, ys); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("PowerExponent err = %v, want ErrDegenerate", err)
	}
	// Distinct N values must still fit fine.
	if _, err := FitModel(ModelLog, []float64{64, 128, 256}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("non-degenerate fit failed: %v", err)
	}
}

func TestFitNoisyLog2StillWins(t *testing.T) {
	src := rng.New(4)
	var ns, ys []float64
	for _, n := range []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		l := math.Log(n)
		for rep := 0; rep < 5; rep++ {
			ns = append(ns, n)
			ys = append(ys, (1+0.05*src.Norm())*0.8*l*l)
		}
	}
	fits := FitAll(ns, ys)
	best := fits[0].Model
	if best != ModelLog2 && best != ModelLog && best != ModelPower {
		t.Fatalf("noisy log² best fit = %v", best)
	}
	// The power exponent must be clearly sub-sqrt.
	p, _ := PowerExponent(ns, ys)
	if p > 0.4 {
		t.Fatalf("noisy log² exponent = %v", p)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}
