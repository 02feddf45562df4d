// Package rng provides fast, allocation-free pseudo-random number generators
// for the hot paths of the relaxed data structures in this repository.
//
// The package exists because the two-choice processes at the heart of the
// paper (MultiCounter increments, MultiQueue dequeues) draw two random
// indices per operation; any locking or allocation inside the generator would
// dominate the very contention effects the experiments measure. Every
// generator here is a plain value type that the caller owns (typically one
// per worker goroutine), so there is no shared state and no synchronization.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator used to seed others and for
//     non-critical decisions. It passes BigCrush on its own but has only 64
//     bits of state.
//   - Xoshiro256: xoshiro256** with 256 bits of state, the workhorse for all
//     experiment workloads.
//
// Bounded integers use Lemire's multiply-shift rejection method, which avoids
// the modulo bias and the division of the textbook approach.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// The zero value is a valid generator (seeded with 0). It is primarily used
// to expand a single seed into the larger state of Xoshiro256.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
// It must be created with NewXoshiro256; the zero value is invalid because
// the all-zero state is a fixed point of the transition function.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator whose 256-bit state is expanded from
// seed via SplitMix64, as recommended by the xoshiro authors. Distinct seeds
// yield statistically independent streams for the purposes of this
// repository's experiments. It is small enough to inline, so a caller that
// copies the result into a struct (*NewXoshiro256(seed)) allocates nothing.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := seeded(seed)
	return &x
}

// seeded is NewXoshiro256's state expansion, returning the generator by
// value.
func seeded(seed uint64) Xoshiro256 {
	sm := NewSplitMix64(seed)
	x := Xoshiro256{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15 // escape the invalid all-zero state
	}
	return x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Next returns the next 64-bit value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl(x.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// method. n must be positive; n == 0 panics.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path: multiply-high gives an unbiased sample when the low word
	// clears the rejection threshold; the loop is entered with probability
	// n / 2^64, which is negligible for the bin counts used here.
	v := x.Next()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = x.Next()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n) as an int. n must be positive.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Exp returns an Exponential(1) variate (mean 1) via inverse transform.
// Theorem 7.1's weighted process inserts weights drawn from this
// distribution.
func (x *Xoshiro256) Exp() float64 {
	// 1-Float64() is in (0,1], so the logarithm is finite.
	return -math.Log(1 - x.Float64())
}

// Bool returns a fair coin flip.
func (x *Xoshiro256) Bool() bool { return x.Next()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (x *Xoshiro256) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Jump advances the generator by 2^128 steps, providing a disjoint
// subsequence; used to derive per-thread streams from a common seed.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var t0, t1, t2, t3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				t0 ^= x.s0
				t1 ^= x.s1
				t2 ^= x.s2
				t3 ^= x.s3
			}
			x.Next()
		}
	}
	x.s0, x.s1, x.s2, x.s3 = t0, t1, t2, t3
}

// Streams returns k generators with pairwise-disjoint subsequences derived
// from seed, one per worker thread.
func Streams(seed uint64, k int) []*Xoshiro256 {
	base := NewXoshiro256(seed)
	out := make([]*Xoshiro256, k)
	for i := 0; i < k; i++ {
		cp := *base
		out[i] = &cp
		base.Jump()
	}
	return out
}
