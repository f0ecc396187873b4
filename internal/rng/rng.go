// Package rng provides a small, deterministic, cloneable pseudo-random
// number generator.
//
// The fault-injection campaigns in this repository warm a network to a
// given cycle, deep-copy it, and replay thousands of faulty continuations
// from the copy. That only works if every source of randomness can be
// cloned bit-for-bit, which the standard library generators do not expose.
// PCG32 (O'Neill, 2014) has a two-word state, excellent statistical
// quality for simulation workloads, and trivially supports cloning.
package rng

import "nocalert/internal/statehash"

// PCG is a PCG32 (XSH-RR variant) pseudo-random number generator.
// The zero value is a valid generator but every zero-value instance
// produces the same stream; use New to obtain distinct streams.
type PCG struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// New returns a generator seeded with seed and stream-selected by seq.
// Generators created with different seq values produce independent
// streams even when given the same seed.
func New(seed, seq uint64) *PCG {
	p := &PCG{inc: seq<<1 | 1}
	p.state = p.inc + seed
	p.Uint32()
	return p
}

// Clone returns an independent copy of the generator. The copy produces
// exactly the same future stream as the original.
func (p *PCG) Clone() *PCG {
	c := *p
	return &c
}

// FoldState folds the generator's full state into a state-fingerprint
// accumulator (see internal/statehash). Two generators whose folds
// agree produce identical future streams.
func (p *PCG) FoldState(h uint64) uint64 {
	return statehash.Fold(statehash.Fold(h, p.state), p.inc)
}

// Uint32 returns the next 32 bits of the stream.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMultiplier + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 bits of the stream.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniformly distributed integer in [0, n).
// It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	for {
		v := p.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound || low >= (-bound)%bound {
			return int(prod >> 32)
		}
	}
}

// Float64 returns a uniformly distributed float in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability prob (clamped to [0, 1]): it
// answers Float64() < prob and advances the stream as Float64 does.
//
// Float64's first 32-bit draw hi is the value's top 32 of 53 bits, so the
// value lies in [hi/2³², (hi+1)/2³²); both ends are exact in a float64.
// Unless prob falls inside that interval the first draw settles the
// answer, and the second only has to step the state, not be permuted into
// output; inside it, the comparison is Float64's own.
func (p *PCG) Bernoulli(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	hi := p.Uint32()
	if lo := float64(hi) * 0x1p-32; lo >= prob || lo+0x1p-32 <= prob {
		p.state = p.state*pcgMultiplier + p.inc
		return lo < prob
	}
	return float64(uint64(hi)<<21|uint64(p.Uint32())>>11)/(1<<53) < prob
}

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood,
// 2014): a bijective avalanche mix used here to fold identifiers into
// seed material. Unlike the PCG stream itself it has no state to
// advance, which makes it the right tool for *deriving* independent
// seeds from structured coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive folds a root seed and a coordinate path into a derived seed.
// The derivation is purely positional: Derive(s, a, b) depends only on
// (s, a, b), never on how many other streams were derived before it, so
// a sharded computation that derives one stream per work item draws
// exactly the same stream for item k no matter which shard runs it or
// in what order — the property that keeps sharded fault campaigns
// bit-identical to unsharded ones.
func Derive(seed uint64, path ...uint64) uint64 {
	h := splitmix64(seed)
	for _, p := range path {
		h = splitmix64(h ^ splitmix64(p))
	}
	return h
}

// NewDerived returns a generator seeded from Derive(seed, path...).
// Distinct paths yield independent streams; equal (seed, path) pairs
// yield identical streams regardless of derivation order.
func NewDerived(seed uint64, path ...uint64) *PCG {
	d := Derive(seed, path...)
	return New(d, splitmix64(d))
}

// Perm returns a pseudo-random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
