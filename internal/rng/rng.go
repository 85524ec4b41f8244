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
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of the
// receiver's. The receiver is advanced.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
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
