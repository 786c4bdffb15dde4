package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws of 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		if v := s.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

// TestNormPinned: the first Norm outputs of a few seeds, as IEEE-754
// bits. Every Gaussian draw in the simulator (mobility, per-pair
// shadowing) flows through Norm, so any change to its rejection loop or
// transform moves stored digests; this pins the stream directly.
func TestNormPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{
		{0x0, []uint64{0x3fef8140ae1026c7, 0xbfc682e27f92f3d9, 0xbfe6c93ef6b47eda, 0xbfd3fd7424aef38c, 0xbfe3ea8af5f57791}},
		{0x1, []uint64{0x3fdb7c251a5470cc, 0x3ff95f5305298699, 0x3fdd368fe72bb620, 0xbfab9bb240029694, 0xbfd4eaec1cb11224}},
		{0x2a, []uint64{0x3fdf8c80e851c08c, 0xbfe6354b5f7dce79, 0xbff47f4af60c7f94, 0xbfecd98e78b167ae, 0xbfe342959c9fa344}},
		{0x9e3779b97f4a7c15, []uint64{0xbfaeba2d9a0e0595, 0xbfda90828d658fd0, 0xbfe08137bc6057da, 0xbfef2c39a06ab90d, 0x3fe965e7ff216f6c}},
	} {
		s := New(tc.seed)
		for i, w := range tc.want {
			if got := math.Float64bits(s.Norm()); got != w {
				t.Fatalf("seed %#x: Norm #%d = %#x, want %#x", tc.seed, i, got, w)
			}
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const n = 200000
	rate := 2.5
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRootStreamStability(t *testing.T) {
	r1 := NewRoot(99)
	r2 := NewRoot(99)
	// Request order must not matter.
	a := r1.Stream("mobility").Uint64()
	_ = r1.Stream("placement").Uint64()
	_ = r2.Stream("placement").Uint64()
	b := r2.Stream("mobility").Uint64()
	if a != b {
		t.Fatal("named streams depend on request order")
	}
}

func TestRootStreamsIndependent(t *testing.T) {
	r := NewRoot(123)
	a := r.Stream("a")
	b := r.Stream("b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("streams a and b collided %d times", same)
	}
}

func TestStreamNDistinct(t *testing.T) {
	r := NewRoot(7)
	seen := map[uint64]int{}
	for i := 0; i < 500; i++ {
		v := r.StreamN("node", i).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("StreamN collision between node %d and %d", prev, i)
		}
		seen[v] = i
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("parent and split child collided %d times", same)
	}
}

func TestRangeProperty(t *testing.T) {
	s := New(41)
	f := func(lo, span float64) bool {
		lo = math.Mod(lo, 1e6)
		span = math.Abs(math.Mod(span, 1e6)) + 1e-9
		v := s.Range(lo, lo+span)
		return v >= lo && v < lo+span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUnbiasedSmall(t *testing.T) {
	// Property: for arbitrary small n, draws stay in range.
	s := New(43)
	f := func(n uint16) bool {
		m := uint64(n%1000) + 1
		return s.Uint64n(m) < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

func TestPoissonDistribution(t *testing.T) {
	// Small mean (plain Knuth path): sample moments and the zero-class
	// probability must match the Poisson law. Bounds are ~5 sigma of
	// the respective estimators, so a correct sampler passes for every
	// seed and an off-by-one or biased one fails decisively.
	s := New(101)
	const (
		mean = 4.2
		n    = 200000
	)
	var sum, sumSq float64
	zeros := 0
	for i := 0; i < n; i++ {
		k := s.Poisson(mean)
		if k < 0 {
			t.Fatalf("negative Poisson draw %d", k)
		}
		sum += float64(k)
		sumSq += float64(k) * float64(k)
		if k == 0 {
			zeros++
		}
	}
	m := sum / n
	v := sumSq/n - m*m
	if tol := 5 * math.Sqrt(mean/n); math.Abs(m-mean) > tol {
		t.Errorf("mean = %v, want %v +- %v", m, mean, tol)
	}
	if tol := 5 * math.Sqrt((mean+2*mean*mean)/n); math.Abs(v-mean) > tol {
		t.Errorf("variance = %v, want %v +- %v", v, mean, tol)
	}
	p0 := math.Exp(-mean)
	if tol := 5 * math.Sqrt(p0*(1-p0)/n); math.Abs(float64(zeros)/n-p0) > tol {
		t.Errorf("P(0) = %v, want %v +- %v", float64(zeros)/n, p0, tol)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	// Large mean exercises the chunked-exponent path (mean > 500 would
	// underflow the naive Knuth product).
	s := New(7)
	const (
		mean = 1800.0
		n    = 20000
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		k := float64(s.Poisson(mean))
		sum += k
		sumSq += k * k
	}
	m := sum / n
	v := sumSq/n - m*m
	if tol := 5 * math.Sqrt(mean/n); math.Abs(m-mean) > tol {
		t.Errorf("mean = %v, want %v +- %v", m, mean, tol)
	}
	if r := v / mean; r < 0.9 || r > 1.1 {
		t.Errorf("variance/mean = %v, want ~1", r)
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	s := New(3)
	if k := s.Poisson(0); k != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", k)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(%v) did not panic", bad)
				}
			}()
			s.Poisson(bad)
		}()
	}
}
