// Package stats provides deterministic pseudo-random number generation,
// aggregate statistics (geometric means, weighted speedup) and histogram
// utilities shared by the simulator, the trackers and the experiment
// harness.
//
// Every source of randomness in the repository (PARA's mitigation coin,
// MINT's slot selection, the synthetic trace generators, the Monte-Carlo
// security analysis) draws from a seeded xoshiro256** generator so that
// every experiment is reproducible bit-for-bit.
package stats

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic PRNG (xoshiro256**).
//
// The zero value is not usable; construct with NewRand. Rand is not safe
// for concurrent use; give each goroutine its own generator (see Split).
// The parallel experiment runner relies on this discipline: every
// sim.RunContext call constructs its own Rand from Config.Seed, so
// concurrent simulations never contend on (or perturb) each other's streams, which
// keeps parallel execution bit-for-bit identical to serial execution.
type Rand struct {
	s [4]uint64
}

// splitMix64 is used to seed the xoshiro state from a single 64-bit seed,
// as recommended by the xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x2545f4914f6cdd1d
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// State returns the generator's internal state so it can be serialized
// (warmup checkpoints) and later restored with SetState.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with a value
// previously obtained from State. The restored generator produces the
// exact same stream the original would have from that point on.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output because it is seeded through
// splitMix64. Split advances r by one draw.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Exponential returns an exponentially distributed value with the given
// mean, via inverse-CDF sampling. Used by trace generators for inter-request
// gaps.
func (r *Rand) Exponential(mean float64) float64 {
	// -mean * ln(U), guarding U=0.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
