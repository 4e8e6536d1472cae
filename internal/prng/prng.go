// Package prng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic decision in the repository (step jitter, dataset record
// sizes, pipeline service-time noise) flows through this package with a
// caller-supplied seed, so whole-system runs are bit-for-bit reproducible.
// The generator is SplitMix64, which is tiny, fast, passes BigCrush when
// used as a 64-bit stream, and — unlike math/rand's global state — is safe
// to embed one-per-component without locking.
package prng

import "math"

// Source is a deterministic 64-bit PRNG (SplitMix64).
// The zero value is a valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns an int uniform on [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a float64 uniform on [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, via the Box-Muller transform.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Jitter returns base scaled by a factor uniform on [1-f, 1+f].
// It is the standard way simulator components add service-time noise.
func (s *Source) Jitter(base float64, f float64) float64 {
	if f <= 0 {
		return base
	}
	return base * (1 + f*(2*s.Float64()-1))
}

// Perm returns a pseudo-random permutation of [0, n).
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
