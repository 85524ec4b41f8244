// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the benchmark
// suite (exponential inter-arrival gaps, log-normal lengths, categorical task
// mixes).
//
// Every experiment in this repository is seeded, so results are exactly
// reproducible run to run. The generator is xoshiro256**, seeded via
// splitmix64 as recommended by its authors; Split derives an independent
// stream so that concurrent components (e.g. per-GPU simulators) never share
// state.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// next is one xoshiro256** step: the output of state (s0, s1, s2, s3) and the
// state after it. It takes and returns the state by value so a loop can keep
// it in registers (Polar).
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// Split returns a new generator whose stream is independent of the
// receiver's. The receiver is advanced.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to [0, 1): the top 53 bits over 2⁵³, exactly.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method: u·√(−2·ln s / s) of the next accepted Polar pair.
func (r *RNG) NormFloat64() float64 {
	var u, s [1]float64
	r.Polar(u[:], s[:])
	return u[0] * math.Sqrt(-2*math.Log(s[0])/s[0])
}

// Polar fills u[i], s[i] with the next len(u) accepted pairs of the Marsaglia
// polar method, in draw order: each candidate takes two uniforms, u = 2·U₁ − 1
// and v = 2·U₂ − 1, and is accepted when s = u² + v² lies in (0, 1). The
// normal variate of a pair is u·√(−2·ln s / s) — what NormFloat64 returns for
// a one-pair fill, and what tensor.NormalsInto computes for many — so filling
// n pairs draws exactly the values, and leaves r in exactly the state, of n
// NormFloat64 calls. The state lives in locals for the whole fill and the
// accept test is branch-free: every candidate is stored at index i, and i
// advances by one only when it is accepted. It panics if len(s) != len(u).
func (r *RNG) Polar(u, s []float64) {
	if len(s) != len(u) {
		panic("rng: Polar pair slices differ in length")
	}
	s = s[:len(u)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < len(u); {
		var a, b uint64
		a, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		b, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		x, y := 2*unit(a)-1, 2*unit(b)-1
		q := float64(x*x) + float64(y*y)
		u[i], s[i] = x, q
		i += accepted(q)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// accepted is 1 when 0 < q < 1 and 0 otherwise, without a branch: a sum of
// squares is never negative or NaN, so its bits b lie in [0, 2⁶³), and the
// test is b ≥ 1 and b < bits(1.0), each read off the sign of a wrapped
// subtraction.
func accepted(q float64) int {
	b := math.Float64bits(q)
	return int((b-1)>>63^1) & int((b-0x3FF0000000000000)>>63)
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal distribution.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Exponential returns an exponential variate with the given rate (events per
// unit time). It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Categorical samples an index from the given non-negative weights. It
// panics if weights is empty or sums to zero.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: empty or zero categorical weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
