// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// All randomness in a simulation flows from a single root seed through
// named streams, so that independent subsystems (mobility, placement,
// hashing salt, workload) draw from statistically independent sequences
// while remaining byte-for-byte reproducible across runs and platforms.
//
// The generator is splitmix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which passes BigCrush
// when used as a 64-bit generator and is trivially seekable/splittable.
package rng

import (
	"math"
)

// Source is a deterministic 64-bit PRNG stream. The zero value is a valid
// stream seeded with 0; prefer New or Root.Stream for anything real.
//
// Source is NOT safe for concurrent use; give each goroutine its own
// stream (see Split).
type Source struct {
	state     uint64
	spare     float64 // cached second Box-Muller variate
	haveSpare bool
}

// golden gamma, the splitmix64 increment.
const gamma = 0x9E3779B97F4A7C15

// New returns a stream seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewLocal returns a stream seeded with seed by value, for stack-local
// derived draws (e.g. a per-pair shadowing variate keyed on an edge)
// that must not heap-allocate. The value is a full independent Source;
// take its address to call methods.
func NewLocal(seed uint64) Source {
	return Source{state: seed}
}

// mix64 is the splitmix64 output function (variant 13).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Split derives an independent child stream. The child's sequence is
// uncorrelated with the parent's subsequent output because both the
// state and the derivation constant are passed through the mixer.
func (s *Source) Split() *Source {
	return &Source{state: mix64(s.Uint64()) ^ 0xA5A5A5A5A5A5A5A5}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.boundedUint64(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.boundedUint64(n)
}

// boundedUint64 uses Lemire's multiply-shift rejection method for an
// unbiased bounded draw.
func (s *Source) boundedUint64(n uint64) uint64 {
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate via the polar Box-Muller
// transform. One variate per call; the spare is cached.
func (s *Source) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	u, v, r := s.Polar()
	f := math.Sqrt(-2 * math.Log(r) / r)
	s.spare = v * f
	s.haveSpare = true
	return u * f
}

// Polar draws the point of the polar method: u, v uniform on (-1, 1),
// redrawn until r = u²+v² lies in the open interval (0, 1). u·f and v·f,
// with f = √(−2 ln r / r), are then two independent standard normals;
// Norm is exactly that. Callers that only need to compare a normal
// against thresholds can bound f from r without taking the log.
func (s *Source) Polar() (u, v, r float64) {
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r = u*u + v*v
		//lint:ignore floateq polar rejection sampling excludes the exact origin
		if r < 1 && r != 0 {
			return u, v, r
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-s.Float64()) / rate
}

// Poisson returns a Poisson-distributed variate with the given mean.
// The sampler is exact (chunked Knuth: count uniform factors until the
// running product crosses e^-mean, consuming the exponent in steps of
// 500 so the product never underflows), deterministic, and costs
// O(mean) uniform draws. A mean of 0 returns 0; negative or non-finite
// means panic.
func (s *Source) Poisson(mean float64) int {
	if mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		panic("rng: Poisson with negative or non-finite mean")
	}
	//lint:ignore floateq exact zero mean is the degenerate no-arrivals case
	if mean == 0 {
		return 0
	}
	const step = 500
	left := mean
	k := 0
	p := 1.0
	for {
		k++
		p *= s.Float64()
		for p < 1 && left > 0 {
			if left > step {
				p *= math.Exp(step)
				left -= step
			} else {
				p *= math.Exp(left)
				left = 0
			}
		}
		if p <= 1 && left <= 0 {
			return k - 1
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Root derives named streams from a single experiment seed. Identical
// (seed, name) pairs always yield identical streams, independent of the
// order in which streams are requested.
type Root struct {
	seed uint64
}

// NewRoot returns a stream factory for the given experiment seed.
func NewRoot(seed uint64) *Root {
	return &Root{seed: seed}
}

// Seed reports the root seed.
func (r *Root) Seed() uint64 { return r.seed }

// Stream returns the deterministic stream for a subsystem name.
func (r *Root) Stream(name string) *Source {
	h := hashString(name)
	return New(mix64(r.seed ^ h))
}

// StreamN returns the deterministic stream for (name, n), e.g. a
// per-node mobility stream.
func (r *Root) StreamN(name string, n int) *Source {
	h := hashString(name)
	return New(mix64(r.seed^h) + gamma*uint64(n+1))
}

// hashString is FNV-1a 64.
func hashString(s string) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x00000100000001B3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
