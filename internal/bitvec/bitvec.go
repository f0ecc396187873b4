// Package bitvec provides the small fixed-width bit vectors used for
// request/grant signals, crossbar control and read/write strobes. NoC
// control vectors are narrow (≤ ports or ≤ VCs wide), so a uint32-backed
// value type keeps them allocation-free, trivially cloneable, and easy
// for the fault plane to flip bits in.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a little-endian bit vector: bit i corresponds to client i of an
// arbiter, VC i of a port, or port i of a crossbar row/column.
type Vec uint32

// New returns a vector with the given bits set. Only tests build vectors
// from bit lists (core's checker unit tests, router's arbiter tests).
func New(bitsSet ...int) Vec {
	var v Vec
	for _, b := range bitsSet {
		v = v.Set(b)
	}
	return v
}

// Set returns v with bit i set. It panics if i is outside [0, 32).
func (v Vec) Set(i int) Vec {
	checkIndex(i)
	return v | 1<<uint(i)
}

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	checkIndex(i)
	return v&(1<<uint(i)) != 0
}

// Count returns the number of set bits.
func (v Vec) Count() int { return bits.OnesCount32(uint32(v)) }

// IsZero reports whether no bit is set.
func (v Vec) IsZero() bool { return v == 0 }

// AtMostOneHot reports whether zero or one bit is set — the shape every
// grant vector and crossbar control vector must have (invariances 6, 14,
// and 15).
func (v Vec) AtMostOneHot() bool { return v&(v-1) == 0 }

// First returns the index of the lowest set bit, or -1 if none is set.
func (v Vec) First() int {
	if v == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(v))
}

// NextBit returns the index of the lowest set bit and v with that bit
// cleared, for allocation-free ascending iteration:
//
//	for w := v; !w.IsZero(); {
//		var i int
//		i, w = w.NextBit()
//		...
//	}
//
// NextBit on a zero vector returns (32, 0).
func (v Vec) NextBit() (int, Vec) {
	return bits.TrailingZeros32(uint32(v)), v & (v - 1)
}

// Mask returns a vector with the low width bits set.
func Mask(width int) Vec {
	// The panic formatting lives in badWidth so Mask stays inlineable;
	// routers and checkers mask vectors many times per cycle.
	if uint(width) > 32 {
		badWidth(width)
	}
	// The 64-bit shift makes width == 32 fall out of the subtraction
	// instead of needing its own branch, keeping Mask under the inline
	// budget.
	return Vec(uint64(1)<<uint(width) - 1)
}

// badWidth and badIndex stay out of line so the panic formatting does
// not count against their callers' inline budgets (Mask, Set, Get and
// friends run in per-cycle router and checker loops).
//
//go:noinline
func badWidth(width int) {
	panic(fmt.Sprintf("bitvec: invalid width %d", width))
}

// String renders the vector as bits, most significant first, over the
// minimum width that shows all set bits (at least 1 digit).
func (v Vec) String() string {
	if v == 0 {
		return "0"
	}
	hi := 31 - bits.LeadingZeros32(uint32(v))
	var sb strings.Builder
	for i := hi; i >= 0; i-- {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func checkIndex(i int) {
	// Split from its panic so Set and Get inline fully.
	if uint(i) >= 32 {
		badIndex(i)
	}
}

//go:noinline
func badIndex(i int) {
	panic(fmt.Sprintf("bitvec: bit index %d out of range", i))
}
