// Package trace synthesizes deterministic instruction streams that stand in
// for the SPLASH-2 and PARSEC binaries of the paper's evaluation.
//
// The real applications are unavailable here (and no x86 front-end exists),
// so each application is replaced by a statistical profile: instruction mix,
// dependency-distance distribution (the ILP the out-of-order core can
// extract), a multi-region working-set model (which determines DL1/L2/L3
// hit rates), and branch-site behaviour (which determines predictor
// accuracy). Streams are reproducible: the same profile, seed and core ID
// always generate the same trace.
package trace

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is used instead of math/rand so traces remain stable
// across Go releases and so each (workload, core) pair owns an independent
// stream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. Distinct seeds
// give independent-looking streams; a zero seed is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// threshold converts a probability into the integer form of the test
// Float64() < p. Float64 is k/2^53 for the integer k = Uint64()>>11, and
// p·2^53 is exact in floating point (a power-of-two scaling), so
// k/2^53 < p holds exactly when k < ⌈p·2^53⌉. Hot paths precompute the
// threshold once and then draw with one integer compare, consuming the
// same draws and returning the same results as the float test.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN: Float64() < NaN is false
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// below reports whether one draw falls under threshold t: Bool for a
// precomputed threshold.
func (r *RNG) below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// geometric is Geometric for a success probability given as a threshold.
func (r *RNG) geometric(t uint64) int {
	n := 1
	for !r.below(t) {
		n++
		if n >= 1024 { // cap pathological tails
			break
		}
	}
	return n
}
