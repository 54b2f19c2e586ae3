// Package rng provides fast, deterministic pseudo-random number generation
// for the simulators in this repository.
//
// Every stochastic component (cache replacement, trace generation, the
// bucket-and-balls security model, attack drivers) draws from its own
// seeded stream so experiments are reproducible bit-for-bit given a seed,
// and so components do not perturb each other's sequences when one of them
// is reconfigured.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographic;
// the cryptographic component of the cache designs is the PRINCE cipher in
// package prince.
package rng

import (
	"errors"
	"math/bits"
)

// SplitMix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is used for seeding and for cheap one-off hashes.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes a single 64-bit value through one splitmix64 step. It is a
// convenience for deriving stream seeds from (seed, component-id) pairs.
func Mix64(x uint64) uint64 {
	s := x
	return SplitMix64(&s)
}

// Rand is a xoshiro256** generator. The zero value is invalid; construct
// with New.
//
// The four state words are named fields rather than an array: that keeps
// Next and Uint64 under the compiler's inlining budget, and a struct of
// four scalars, unlike an array, is one the compiler can hold in
// registers. State orders them s0..s3.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from the given seed via splitmix64.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// State is the full internal state of a Rand: the four xoshiro256** words.
// It is a plain value so snapshot layers can serialize it without reaching
// into unexported fields.
type State [4]uint64

// Save returns a copy of the generator's current state. A generator
// restored from the returned State produces exactly the same stream of
// draws as the original from this point on.
func (r *Rand) Save() State { return State{r.s0, r.s1, r.s2, r.s3} }

// Restore overwrites the generator state with a previously saved State.
// The all-zero state is the one fixed point xoshiro256** can never leave,
// so it is rejected: it can only arise from corrupt or forged snapshots.
func (r *Rand) Restore(st State) error {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		return errors.New("rng: refusing to restore all-zero state")
	}
	r.s0, r.s1, r.s2, r.s3 = st[0], st[1], st[2], st[3]
	return nil
}

// Uint64 returns the next 64 bits of the stream. It must stay inlinable
// (ci.sh checks), as must Next.
func (r *Rand) Uint64() (x uint64) {
	x, *r = r.Next()
	return x
}

// Next returns the next 64 bits of the stream and the generator advanced
// past them, leaving r itself unchanged: it is the one xoshiro256** step,
// which Uint64 applies in place. A hot loop that keeps its generator in a
// local draws with x, g = g.Next(), so g's address is never taken and
// the compiler can hold the four state words in registers for the whole
// loop.
func (r Rand) Next() (uint64, Rand) {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result, r
}

// Uint32 returns the next 32 bits of the stream.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire rejection sampling. A draw can only be rejected when lo < n
	// (the threshold is 2^64 mod n < n), so the division that computes
	// the threshold runs only then.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		b := NewBound(n)
		for !b.accepts(lo) {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bound is a precomputed Lemire bound: it draws uniformly from [0, n)
// exactly as Uint64n(n) does, returning the same values from the same
// draws, without Uint64n's per-call checks or division. Loops that draw
// from a fixed range many times build it once:
//
//	for {
//		if v, ok := b.Map(r.Uint64()); ok {
//			return v
//		}
//	}
type Bound struct {
	n      uint64
	thresh uint64 // 2^64 mod n: low words below it are rejected
}

// NewBound precomputes the bound for [0, n). It panics if n == 0.
func NewBound(n uint64) Bound {
	if n == 0 {
		panic("rng: NewBound called with n == 0")
	}
	return Bound{n: n, thresh: -n % n}
}

// Map maps the 64-bit draw x onto [0, n) and reports whether Lemire's
// method accepts it; on false the caller draws again. It must stay
// inlinable (ci.sh checks).
func (b Bound) Map(x uint64) (uint64, bool) {
	hi, lo := bits.Mul64(x, b.n)
	return hi, b.accepts(lo)
}

// accepts is Lemire's acceptance rule, shared by Uint64n and Map: the
// low word of x*n must be at least 2^64 mod n.
func (b Bound) accepts(lo uint64) bool { return lo >= b.thresh }

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
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

// Shuffle permutes the first n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from a geometric distribution with success
// probability p (number of trials until first success, >= 1). p must be in
// (0, 1].
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	// Inverse transform sampling; retry on the measure-zero u == 0 edge.
	for {
		u := r.Float64()
		if u > 0 {
			n := int(logFloat(1-u)/logFloat(1-p)) + 1
			if n < 1 {
				n = 1
			}
			return n
		}
	}
}

// logFloat is a small wrapper to keep math import local to one symbol.
func logFloat(x float64) float64 { return mathLog(x) }

// Zipf samples from a bounded Zipf distribution over [0, n) with exponent
// s. Every n uses the same method: one uniform draw inverted through the
// continuous envelope (the integral of x^-s over [0.5, n+0.5]), then
// truncated and clamped to n-1. That approximates the discrete law closely
// enough for the workload model, which needs rank-frequency skew, not
// exact Zipf probabilities.
type Zipf struct {
	r    *Rand
	n    uint64
	s    float64
	hx0  float64
	hxm  float64
	invS float64
}

// NewZipf constructs a Zipf sampler over ranks [0, n) with exponent s > 0,
// s != 1 handled via the generalized harmonic integral approximation.
func NewZipf(r *Rand, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if s <= 0 {
		panic("rng: NewZipf with s <= 0")
	}
	z := &Zipf{r: r, n: n, s: s}
	z.hx0 = z.h(0.5)
	z.hxm = z.h(float64(n) + 0.5)
	z.invS = 1 - s
	return z
}

// h is the antiderivative of x^-s (handles s == 1 via log).
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return mathLog(x)
	}
	return mathPow(x, 1-z.s) / (1 - z.s)
}

// hInv inverts h.
func (z *Zipf) hInv(y float64) float64 {
	if z.s == 1 {
		return mathExp(y)
	}
	return mathPow(y*(1-z.s), 1/(1-z.s))
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() uint64 {
	// Inversion over the continuous envelope, then clamp. This gives a
	// close approximation to the discrete Zipf law, which is all the
	// workload model requires (rank-frequency skew, not exactness).
	u := z.r.Float64()
	y := z.hx0 + u*(z.hxm-z.hx0)
	x := z.hInv(y)
	k := uint64(x)
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
