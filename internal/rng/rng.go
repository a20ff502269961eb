// Package rng provides a small, fast, deterministic random number
// generator (SplitMix64) with a stable stream across platforms and Go
// releases. The simulator and the workload generators must produce
// identical inputs on every run, so they cannot depend on math/rand's
// unspecified stream evolution.
package rng

import "math"

// RNG is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; use New for an explicit seed.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new generator whose stream is independent of r's,
// derived deterministically from r's current state and the given salt.
// It does not advance r.
func (r *RNG) Split(salt uint64) *RNG {
	// Mix the salt through one SplitMix64 round against the current state.
	z := r.state + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded generation via 128-bit multiply emulation is
	// overkill here; modulo bias is negligible for n << 2^63 and keeps the
	// stream trivially portable.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform (the polar-free form keeps the stream consumption fixed at
// exactly two draws per call).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, via Fisher–Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
