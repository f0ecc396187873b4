// Package soa owns the flat, structure-of-arrays storage backing the
// simulator hot path. Every per-VC and per-port register the router and
// NI pipelines touch each cycle — VC status tables, credit counters,
// switch-traversal latches, arbiter priority pointers, occupancy masks —
// lives in one contiguous array per field, indexed by (router, port, vc).
// Router and NI objects hold pre-sliced windows (View) into these arrays
// and keep their existing APIs; forking a campaign run clones the whole
// state with a handful of bulk copies instead of a pointer-graph walk,
// and the per-cycle sweeps become word-at-a-time loops over the masks.
//
// All element types are fixed-width (uint8/int32/uint32/uint64) so the
// layout — and the campaign reports derived from it — is identical on
// 32- and 64-bit platforms. Stored register values are pre-masked at
// their write sites (the router masks every architectural register to
// its hardware width), which is what makes the narrow storage lossless.
package soa

import "fmt"

// Layout fixes the geometry of a State: R routers, P ports per router,
// V virtual channels per port.
type Layout struct {
	R, P, V int
}

// Bits of OutFlags: per-output-VC credit bookkeeping.
const (
	// OutFree marks the downstream VC unallocated (available to VA).
	OutFree uint8 = 1 << iota
	// OutTailSent records that the resident packet's tail departed.
	OutTailSent
)

// Bits of StFlags: per-input-port switch-traversal latches.
const (
	// StReadEn is the buffer read enable latched by SA for next cycle.
	StReadEn uint8 = 1 << iota
	// StSpec marks the latched grant speculative.
	StSpec
)

// Bits of NIFlags: per-NI-output-VC credit bookkeeping (the NI is the
// upstream of its router's local input port).
const (
	NIFree uint8 = 1 << iota
	NITailSent
)

// State is the structure-of-arrays register file for a whole network.
// Indexing: per-(router,port,vc) arrays at r*(P*V)+p*V+v, per-(router,
// port) arrays at r*P+p, per-(router,vc) NI arrays at r*V+v.
type State struct {
	L Layout

	// ---- per (router, port, vc) ----

	// VCState is the input VC pipeline state register (3-bit encoding).
	VCState []uint8
	// VCRoute is the stored RC result (raw 3-bit direction code).
	VCRoute []uint8
	// VCOutVC is the stored VA result (raw VC-identifier code).
	VCOutVC []uint8
	// PktID is the packet currently owning the input VC.
	PktID []uint64
	// Arrived counts the resident packet's flits that entered the VC.
	Arrived []int32
	// Credits is the output VC credit counter register.
	Credits []int32
	// OutFlags holds the output VC's OutFree/OutTailSent bits.
	OutFlags []uint8

	// ---- per (router, port) ----

	// SA1Win / VA1Win are the sticky SA1/VA1 winner latches.
	SA1Win, VA1Win []int32
	// StOut is the intended output port latched by SA (-1 when idle).
	StOut []int32
	// VA1Next, SA1Next, VA2Next, SA2Next are the round-robin arbiter
	// priority pointers (index with highest priority).
	VA1Next, SA1Next, VA2Next, SA2Next []int32
	// StCol is the per-output-port crossbar column reservation vector.
	StCol []uint32
	// CreditIn is the staged upstream credit-return vector.
	CreditIn []uint32
	// NonIdle has bit v set while VCState(p,v) != Idle; Occupied has
	// bit v set while the VC buffers at least one flit. The router
	// maintains both at every state/buffer write site; the fast sweeps
	// and the inert-router skip iterate these instead of scanning VCs.
	NonIdle, Occupied []uint32
	// StFlags holds the StReadEn/StSpec bits.
	StFlags []uint8

	// ---- per (router, vc): NI output-VC credit state ----

	NICredits []int32
	NIFlags   []uint8
}

// NewState allocates a zeroed State for the layout.
func NewState(l Layout) *State {
	if l.R < 1 || l.P < 1 || l.V < 1 {
		panic(fmt.Sprintf("soa: invalid layout %+v", l))
	}
	if l.V > 32 || l.P > 32 {
		panic(fmt.Sprintf("soa: layout %+v exceeds mask width", l))
	}
	npv := l.R * l.P * l.V
	np := l.R * l.P
	nv := l.R * l.V
	return &State{
		L:       l,
		VCState: make([]uint8, npv), VCRoute: make([]uint8, npv), VCOutVC: make([]uint8, npv),
		PktID: make([]uint64, npv), Arrived: make([]int32, npv),
		Credits: make([]int32, npv), OutFlags: make([]uint8, npv),
		SA1Win: make([]int32, np), VA1Win: make([]int32, np), StOut: make([]int32, np),
		VA1Next: make([]int32, np), SA1Next: make([]int32, np),
		VA2Next: make([]int32, np), SA2Next: make([]int32, np),
		StCol: make([]uint32, np), CreditIn: make([]uint32, np),
		NonIdle: make([]uint32, np), Occupied: make([]uint32, np),
		StFlags:   make([]uint8, np),
		NICredits: make([]int32, nv), NIFlags: make([]uint8, nv),
	}
}

// View is router r's window into the State: each slice covers exactly
// that router's entries (per-(port,vc) slices have len P*V and are
// indexed p*V+v; per-port slices have len P).
type View struct {
	P, V int

	VCState, VCRoute, VCOutVC []uint8
	PktID                     []uint64
	Arrived, Credits          []int32
	OutFlags                  []uint8

	SA1Win, VA1Win, StOut              []int32
	VA1Next, SA1Next, VA2Next, SA2Next []int32
	StCol, CreditIn, NonIdle, Occupied []uint32
	StFlags                            []uint8
}

// View returns router r's window. The sub-slices are full slices
// (capacity clamped), so a View cannot grow into a neighbour's window.
func (s *State) View(r int) View {
	if r < 0 || r >= s.L.R {
		panic(fmt.Sprintf("soa: view of router %d outside layout %+v", r, s.L))
	}
	pv := s.L.P * s.L.V
	a, b := r*pv, (r+1)*pv
	p0, p1 := r*s.L.P, (r+1)*s.L.P
	return View{
		P: s.L.P, V: s.L.V,
		VCState: s.VCState[a:b:b], VCRoute: s.VCRoute[a:b:b], VCOutVC: s.VCOutVC[a:b:b],
		PktID: s.PktID[a:b:b], Arrived: s.Arrived[a:b:b],
		Credits: s.Credits[a:b:b], OutFlags: s.OutFlags[a:b:b],
		SA1Win: s.SA1Win[p0:p1:p1], VA1Win: s.VA1Win[p0:p1:p1], StOut: s.StOut[p0:p1:p1],
		VA1Next: s.VA1Next[p0:p1:p1], SA1Next: s.SA1Next[p0:p1:p1],
		VA2Next: s.VA2Next[p0:p1:p1], SA2Next: s.SA2Next[p0:p1:p1],
		StCol: s.StCol[p0:p1:p1], CreditIn: s.CreditIn[p0:p1:p1],
		NonIdle: s.NonIdle[p0:p1:p1], Occupied: s.Occupied[p0:p1:p1],
		StFlags: s.StFlags[p0:p1:p1],
	}
}

// NIView returns node r's NI credit window: the per-VC credit counters
// and NIFree/NITailSent flag bytes.
func (s *State) NIView(r int) (credits []int32, flags []uint8) {
	if r < 0 || r >= s.L.R {
		panic(fmt.Sprintf("soa: NI view of node %d outside layout %+v", r, s.L))
	}
	a, b := r*s.L.V, (r+1)*s.L.V
	return s.NICredits[a:b:b], s.NIFlags[a:b:b]
}

// CopyFrom bulk-copies src into s. Layouts must match exactly; this is
// the whole-network register-file clone behind campaign forking.
func (s *State) CopyFrom(src *State) {
	if s.L != src.L {
		panic(fmt.Sprintf("soa: CopyFrom layout mismatch %+v vs %+v", s.L, src.L))
	}
	copy(s.VCState, src.VCState)
	copy(s.VCRoute, src.VCRoute)
	copy(s.VCOutVC, src.VCOutVC)
	copy(s.PktID, src.PktID)
	copy(s.Arrived, src.Arrived)
	copy(s.Credits, src.Credits)
	copy(s.OutFlags, src.OutFlags)
	copy(s.SA1Win, src.SA1Win)
	copy(s.VA1Win, src.VA1Win)
	copy(s.StOut, src.StOut)
	copy(s.VA1Next, src.VA1Next)
	copy(s.SA1Next, src.SA1Next)
	copy(s.VA2Next, src.VA2Next)
	copy(s.SA2Next, src.SA2Next)
	copy(s.StCol, src.StCol)
	copy(s.CreditIn, src.CreditIn)
	copy(s.NonIdle, src.NonIdle)
	copy(s.Occupied, src.Occupied)
	copy(s.StFlags, src.StFlags)
	copy(s.NICredits, src.NICredits)
	copy(s.NIFlags, src.NIFlags)
}

// CopyFrom copies src's window contents into v's. Geometries must match.
// Router CloneInto uses this when both routers are bound to distinct
// States; Network-level forks bulk-copy the whole State instead.
func (v View) CopyFrom(src View) {
	if v.P != src.P || v.V != src.V {
		panic(fmt.Sprintf("soa: view CopyFrom geometry mismatch %d/%d vs %d/%d", v.P, v.V, src.P, src.V))
	}
	copy(v.VCState, src.VCState)
	copy(v.VCRoute, src.VCRoute)
	copy(v.VCOutVC, src.VCOutVC)
	copy(v.PktID, src.PktID)
	copy(v.Arrived, src.Arrived)
	copy(v.Credits, src.Credits)
	copy(v.OutFlags, src.OutFlags)
	copy(v.SA1Win, src.SA1Win)
	copy(v.VA1Win, src.VA1Win)
	copy(v.StOut, src.StOut)
	copy(v.VA1Next, src.VA1Next)
	copy(v.SA1Next, src.SA1Next)
	copy(v.VA2Next, src.VA2Next)
	copy(v.SA2Next, src.SA2Next)
	copy(v.StCol, src.StCol)
	copy(v.CreditIn, src.CreditIn)
	copy(v.NonIdle, src.NonIdle)
	copy(v.Occupied, src.Occupied)
	copy(v.StFlags, src.StFlags)
}
