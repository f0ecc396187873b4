package router

import (
	"fmt"

	"nocalert/internal/flit"
)

// VCState is a virtual channel's pipeline state register. It advances
// Idle → Routing → WaitingVA → Active as the header flit flows through
// the RC and VA stages, and returns to Idle when the tail drains. The
// register is VCStateWidth bits wide, so encodings ≥ numVCStates are the
// illegal values the fault plane can produce and invariance 17 flags.
type VCState uint8

const (
	// VCIdle: the VC is free; no packet is resident.
	VCIdle VCState = iota
	// VCRouting: a header flit is at the head of the buffer waiting for
	// (or undergoing) routing computation.
	VCRouting
	// VCWaitingVA: RC is complete; the VC is bidding in VA.
	VCWaitingVA
	// VCActive: VA is complete; flits stream through SA/XBAR.
	VCActive
	numVCStates
)

// Valid reports whether the state encoding is one of the defined states.
func (s VCState) Valid() bool { return s < numVCStates }

// String returns a short name for the state.
func (s VCState) String() string {
	switch s {
	case VCIdle:
		return "Idle"
	case VCRouting:
		return "RC"
	case VCWaitingVA:
		return "VA"
	case VCActive:
		return "Active"
	}
	return fmt.Sprintf("VCState(%d)", uint8(s))
}

// inVC is one input virtual channel's pointer-typed residue: the FIFO
// flit buffer and the read/write latches. The scalar registers of the
// paper's VC status table (state, route, outVC, pktID, arrived) live in
// the network's structure-of-arrays state (internal/soa), windowed by
// Router.st — that is what lets the per-cycle sweeps walk flat arrays
// and campaign forks bulk-copy the register file.
type inVC struct {
	// buf is the FIFO buffer, buf[0] the head: a window over slots, the
	// BufDepth slots allocated once. A pop moves the window's start and
	// clears the slot it leaves; a push that finds the window at the end of
	// the slots moves it back to the front first.
	buf   []slot
	slots []slot
	// read holds the most recently read flit as of read time. A read
	// strobe hitting an empty buffer returns stale storage, not blanks —
	// the mechanism by which the paper says "a new flit may be generated".
	read latch
	// written holds the most recently written flit at write time, used by
	// the non-atomic mixing rule (a tail must be followed by a header).
	written latch
}

// latch is a read or write latch: the bits of a flit as they were when it
// was latched. A hardware latch holds a value, and downstream rewrites of
// the flit must not alias back into it; but of a flit only two fields are
// ever rewritten — Kind where it arrives (a faulted kind field), VC where
// it departs (restamped per hop) — so the latch keeps those two as they
// were and the flit itself, whose other fields no one writes, for the
// rest: a pointer and two words where a copy would be the whole flit.
type latch struct {
	f    *flit.Flit // nil until the first flit is latched
	kind flit.Kind
	vc   int
}

func (l *latch) set(f *flit.Flit) { l.f, l.kind, l.vc = f, f.Kind, f.VC }

// valid reports whether a flit was ever latched.
func (l *latch) valid() bool { return l.f != nil }

// value returns the latched bits; the latch must be valid.
func (l *latch) value() flit.Flit {
	v := *l.f
	v.Kind, v.VC = l.kind, l.vc
	return v
}

// digest is value's flit.Digest.
func (l *latch) digest() uint64 {
	v := l.value()
	return v.Digest()
}

// slot is one buffered flit and, once a state fold has taken it, the
// flit's digest (zero before): nothing rewrites a buffered flit, so the
// digest stands until the flit leaves, and a fold of a VC that is written
// every cycle hashes each flit once, not once a cycle.
type slot struct {
	f   *flit.Flit
	dig uint64
}

func (v *inVC) empty() bool { return len(v.buf) == 0 }
func (v *inVC) full(depth int) bool {
	return len(v.buf) >= depth
}

// head returns the flit at the front of the buffer, or nil.
func (v *inVC) head() *flit.Flit {
	if len(v.buf) == 0 {
		return nil
	}
	return v.buf[0].f
}

// rawInvalidDir is the reset value of the route register: an encoding
// outside the legal 0–4 range so that stale routes are distinguishable.
const rawInvalidDir = 7

// inputPort is one input port: VCs VCs sharing one physical channel via
// a demultiplexer (writes) and a multiplexer (reads), which is why at
// most one flit may enter or leave the port per cycle (invariances
// 29–31). The SA1 winner latch lives in the SoA state (Router.st.SA1Win).
type inputPort struct {
	vcs []inVC
}
