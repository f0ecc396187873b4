// Package fault implements the paper's fault model (§5.2): single-bit
// faults injected at the inputs and outputs of each individual control
// module of each router. Sites are enumerated per signal and bit; the
// router consults the injection Plane at every module boundary, so a
// fault corrupts both the value the router acts on and the value the
// NoCAlert checkers observe — exactly the wire-level tap a hardware
// fault has.
//
// Three fault types are supported. Transient faults (the paper's
// stimulus) XOR the target bit for a single cycle; register sites flip
// the stored bit once, persisting until the register is rewritten, which
// is how a single-event upset behaves in a flip-flop. Permanent faults
// keep the XOR applied from the injection cycle onward, and intermittent
// faults apply it with a configurable period and duty cycle — the model
// behind the paper's Observation 3.
package fault

import (
	"fmt"
	"math"
)

// Kind identifies the signal class a fault site belongs to. Each kind
// fixes which module boundary the Plane is consulted at and how Port/VC
// are interpreted.
type Kind int

// Signal classes, grouped by module. "In"/"input-port-indexed" kinds use
// Site.Port as an input port; output-stage kinds use it as an output
// port.
const (
	// RCInDestX is the destination X coordinate wire feeding an input
	// port's routing-computation unit (module input).
	RCInDestX Kind = iota
	// RCInDestY is the corresponding Y coordinate wire.
	RCInDestY
	// RCOutDir is the output-direction vector produced by an input
	// port's RC unit (module output).
	RCOutDir
	// VA1Req is the request vector of an input port's local VA arbiter.
	VA1Req
	// VA1Gnt is the grant vector of an input port's local VA arbiter.
	VA1Gnt
	// VA2Req is the request vector of an output port's global VA arbiter.
	VA2Req
	// VA2Gnt is the grant vector of an output port's global VA arbiter.
	VA2Gnt
	// VA2OutVC is the output-VC index assigned by an output port's VA
	// stage to the winning packet.
	VA2OutVC
	// SA1Req is the request vector of an input port's local SA arbiter.
	SA1Req
	// SA1Gnt is the grant vector of an input port's local SA arbiter.
	SA1Gnt
	// SA2Req is the request vector of an output port's global SA arbiter.
	SA2Req
	// SA2Gnt is the grant vector of an output port's global SA arbiter.
	SA2Gnt
	// XbarSel is the column control vector of the crossbar for one
	// output port (which input row is connected).
	XbarSel
	// BufRead is the per-VC read-strobe vector of an input port.
	BufRead
	// BufWrite is the per-VC write-strobe vector of an input port.
	BufWrite
	// FlitKindIn is the kind field (head/body/tail encoding) of a flit
	// arriving at an input port.
	FlitKindIn
	// FlitVCIn is the VC-identifier field of a flit arriving at an
	// input port (the demux select).
	FlitVCIn
	// VCStateReg is a virtual channel's pipeline-state register.
	VCStateReg
	// VCRouteReg is a virtual channel's stored output-port register
	// (the latched RC result).
	VCRouteReg
	// VCOutVCReg is a virtual channel's stored output-VC register (the
	// latched VA result).
	VCOutVCReg
	// CreditSig is the per-VC credit-return signal arriving at an
	// output port from its downstream neighbor.
	CreditSig
	// CreditCountReg is the credit counter register of one output VC.
	CreditCountReg
	numKinds
)

var kindNames = [numKinds]string{
	"rc.in.destx", "rc.in.desty", "rc.out.dir",
	"va1.req", "va1.gnt", "va2.req", "va2.gnt", "va2.outvc",
	"sa1.req", "sa1.gnt", "sa2.req", "sa2.gnt",
	"xbar.sel", "buf.read", "buf.write", "flit.kind", "flit.vc",
	"vc.state", "vc.route", "vc.outvc", "credit.sig", "credit.count",
}

// String returns the dotted signal-path name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// IsRegister reports whether sites of this kind are storage elements:
// a transient fault there flips the stored bit once and the corruption
// persists until the register is rewritten, rather than lasting one
// cycle on a wire.
func (k Kind) IsRegister() bool {
	switch k {
	case VCStateReg, VCRouteReg, VCOutVCReg, CreditCountReg:
		return true
	}
	return false
}

// Site is one multi-bit fault location: a specific signal of a specific
// module instance of a specific router.
type Site struct {
	// Router is the router's node id.
	Router int
	// Kind is the signal class.
	Kind Kind
	// Port is the port index the module instance belongs to; input or
	// output port depending on Kind.
	Port int
	// VC is the virtual channel index for per-VC sites, or -1 for
	// per-port signals.
	VC int
	// Width is the signal width in bits; faults target one of these.
	Width int
}

// String renders the site as router/port[/vc]/signal.
func (s Site) String() string {
	if s.VC >= 0 {
		return fmt.Sprintf("r%d.p%d.vc%d.%s", s.Router, s.Port, s.VC, s.Kind)
	}
	return fmt.Sprintf("r%d.p%d.%s", s.Router, s.Port, s.Kind)
}

// Type selects the temporal behaviour of a fault.
type Type int

const (
	// Transient faults last one cycle on wires and flip registers once.
	Transient Type = iota
	// Permanent faults apply from the injection cycle onward.
	Permanent
	// Intermittent faults apply during the first Duty cycles of every
	// Period cycles, starting at the injection cycle.
	Intermittent
)

// String returns the fault type's name.
func (t Type) String() string {
	switch t {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Intermittent:
		return "intermittent"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Fault is a single-bit fault bound to a site.
type Fault struct {
	Site Site
	// Bit is the bit index within the signal, in [0, Site.Width).
	Bit int
	// Cycle is the injection cycle.
	Cycle int64
	// Type is the temporal behaviour.
	Type Type
	// Period and Duty configure Intermittent faults; ignored otherwise.
	Period, Duty int64
}

// ActiveAt reports whether the fault corrupts its wire during the given
// cycle. Register sites use this only at the injection cycle (the flip
// is then carried by the register itself).
func (f *Fault) ActiveAt(cycle int64) bool {
	if cycle < f.Cycle {
		return false
	}
	switch f.Type {
	case Transient:
		return cycle == f.Cycle
	case Permanent:
		return true
	case Intermittent:
		if f.Period <= 0 {
			return cycle == f.Cycle
		}
		return (cycle-f.Cycle)%f.Period < f.Duty
	}
	return false
}

// lastActive returns the last cycle the fault can corrupt anything, or
// math.MaxInt64 for one that stays armed: a transient, and an
// intermittent without a period (a single strike on the read path),
// close on their injection cycle; a permanent and a periodic
// intermittent never do. It is the one place that decides what closes —
// the plane's windows, Quiescent and Stationary all read it — and
// ActiveAt is false on every cycle past it.
func (f *Fault) lastActive() int64 {
	if f.Type == Transient || (f.Type == Intermittent && f.Period <= 0) {
		return f.Cycle
	}
	return math.MaxInt64
}

// stationaryFrom returns the first cycle from which the fault answers
// every consult as it did the cycle before: a one-shot once its window
// has closed, a permanent fault — the same XOR on every cycle — once it
// is armed, a periodic intermittent fault, which turns on and off with
// the cycle count, never (math.MaxInt64).
func (f *Fault) stationaryFrom() int64 {
	switch last := f.lastActive(); {
	case f.Type == Permanent:
		return f.Cycle
	case last == math.MaxInt64:
		return last
	default:
		return last + 1
	}
}

// String renders the fault for logs and reports.
func (f *Fault) String() string {
	return fmt.Sprintf("%s bit%d @%d %s", f.Site, f.Bit, f.Cycle, f.Type)
}

// Plane is the injection surface routers consult at module boundaries.
// A nil *Plane is valid and injects nothing, so fault-free simulations
// pay only a nil check. The zero value is also an empty plane.
type Plane struct {
	faults []Fault
	// FiredAt records the first cycle each fault actually corrupted a
	// consulted signal, or -1 while it has not; campaigns use it to
	// confirm the fault was exercised.
	firedAt []int64
	// minCycle and maxCycle bound the union of all fault activity
	// windows. Routers consult the plane on every signal read of every
	// cycle, so rejecting cycles outside the window before scanning the
	// fault list is the difference between O(1) and O(faults) per
	// consult — which dominates campaign runs, where faults are active
	// for a single cycle out of thousands.
	minCycle, maxCycle int64
	// windows holds, for each router that hosts a fault, the span from its
	// faults' first injection cycle to the last cycle any of them can be
	// active. Every consult matches on the consulting router's id, so a
	// router outside its own window — or with none — gets "no fault" from
	// the plane whatever the other routers host; LiveFor is that test.
	// Read-only after NewPlane, so clones share it.
	windows []window
	// kinds has one bit per signal kind that hosts a fault: a consult of
	// any other kind cannot match, whatever the cycle and the router.
	kinds uint32
	// stationaryFrom is the first cycle from which Stationary holds, the
	// last of the faults' own (Fault.stationaryFrom): math.MaxInt64 when a
	// periodic intermittent fault keeps the plane moving for ever,
	// math.MinInt64 for an empty plane.
	stationaryFrom int64
}

// window is one router's fault activity span, inclusive at both ends, and
// the ports its faults sit on, one bit a port.
type window struct {
	router   int
	from, to int64
	ports    uint32
}

// NewPlane returns a plane injecting the given faults.
func NewPlane(faults ...Fault) *Plane {
	p := &Plane{faults: faults, firedAt: make([]int64, len(faults))}
	p.minCycle, p.maxCycle, p.stationaryFrom = math.MaxInt64, math.MinInt64, math.MinInt64
	for i := range p.firedAt {
		p.firedAt[i] = -1
		f := &p.faults[i]
		from, to := f.Cycle, f.lastActive()
		p.minCycle, p.maxCycle = min(p.minCycle, from), max(p.maxCycle, to)
		p.kinds |= 1 << uint(f.Site.Kind)
		p.stationaryFrom = max(p.stationaryFrom, f.stationaryFrom())
		port := uint32(1) << uint(f.Site.Port) // 0 off [0, 32)
		if w := p.windowOf(f.Site.Router); w != nil {
			w.from, w.to, w.ports = min(w.from, from), max(w.to, to), w.ports|port
		} else {
			p.windows = append(p.windows, window{router: f.Site.Router, from: from, to: to, ports: port})
		}
	}
	return p
}

// windowOf returns router's window, nil if it hosts no fault.
func (p *Plane) windowOf(router int) *window {
	for i := range p.windows {
		if w := &p.windows[i]; w.router == router {
			return w
		}
	}
	return nil
}

// Faults returns the faults carried by the plane (for tests: sim's
// engine lockstep tests, TestNilPlaneIsIdentity).
func (p *Plane) Faults() []Fault {
	if p == nil {
		return nil
	}
	return p.faults
}

// FiredAt returns the first cycle fault i corrupted a signal, or -1.
func (p *Plane) FiredAt(i int) int64 {
	if p == nil {
		return -1
	}
	return p.firedAt[i]
}

// Quiescent reports whether the plane can no longer fire from the given
// cycle onward, regardless of whether it already did: every fault is a
// one-shot (Fault.lastActive) whose window has closed. That is what the
// reconvergence exit needs: a plane that fired has its perturbation in
// flight, and the only open question is whether it washes out; one that
// never fired changed nothing, so its run reconverges.
//
// Quiescent is monotone: windows only close. maxCycle is the last of the
// faults' last active cycles (an empty plane's is math.MinInt64), so the
// query is one compare.
func (p *Plane) Quiescent(cycle int64) bool {
	return p == nil || cycle > p.maxCycle
}

// Stationary reports whether the plane answers every consult the same
// way on every cycle from the given one onward: each fault is a one-shot
// (Fault.lastActive) whose window has closed, or a permanent one that is
// armed, which corrupts its wire on every cycle alike. A periodic
// intermittent fault never is: it turns on and off with the cycle count.
// A quiescent plane is stationary; a stationary one may still fire, but
// only as it did on the cycle before, which is what lets a campaign run
// whose network has stopped changing under a permanent fault be
// fast-forwarded (campaign.ffProbe). Monotone, like Quiescent.
func (p *Plane) Stationary(cycle int64) bool {
	return p == nil || cycle >= p.stationaryFrom
}

// LiveFor reports whether a fault hosted by router may be active at
// cycle: the one liveness query. Routers cache it in BeginCycle so that
// out-of-window consults cost a single branch instead of a Plane method
// call, and the steppers use it to decide whether an idle router may be
// skipped. A router that hosts no fault is never live, whatever is armed
// elsewhere in the mesh. Small enough to inline; outside the plane's
// global window it costs two compares.
func (p *Plane) LiveFor(cycle int64, router int) bool {
	if p == nil || cycle < p.minCycle || cycle > p.maxCycle {
		return false
	}
	w := p.windowOf(router)
	return w != nil && cycle >= w.from && cycle <= w.to
}

// Ports returns the ports the faults router hosts sit on, one bit a port
// (Site.Port, input or output by kind; zero for a router that hosts none).
// Every consult matches a fault's port exactly, so inside router's window a
// consult at any other port answers the value it is given.
func (p *Plane) Ports(router int) uint32 {
	if p == nil {
		return 0
	}
	if w := p.windowOf(router); w != nil {
		return w.ports
	}
	return 0
}

// LiveFrom reports whether a fault hosted by router may be active at cycle
// or at some later one: whether the router's own window has not closed
// before cycle. A router for which it is false steps with its window closed
// for good, which is what lets a state fold leave out the registers such a
// step writes before it reads them (router.Router.FoldResidue). Monotone:
// false at one cycle, false at every later one.
func (p *Plane) LiveFrom(cycle int64, router int) bool {
	if p == nil || cycle > p.maxCycle {
		return false
	}
	w := p.windowOf(router)
	return w != nil && cycle <= w.to
}

// Clone returns an independent copy of the plane. What NewPlane derived
// from the faults is read-only and shared. Tests give each of two engines
// stepped in lockstep its own plane with it (sim's diffPairOf,
// frontierLockstep; TestPlaneClone).
func (p *Plane) Clone() *Plane {
	if p == nil {
		return nil
	}
	c := *p
	c.faults = append([]Fault(nil), p.faults...)
	c.firedAt = append([]int64(nil), p.firedAt...)
	return &c
}

// misses reports whether a consult of a signal of the given kind at cycle
// cannot match any fault: no plane, a cycle outside the plane's window
// (an empty plane has minCycle > maxCycle, so it always misses), or a
// kind that hosts no fault — every read but one kind's, under a single
// armed fault. It is what a consult costs when it returns without the
// scan of the fault list.
func (p *Plane) misses(cycle int64, kind Kind) bool {
	return p == nil || cycle < p.minCycle || cycle > p.maxCycle || p.kinds>>uint(kind)&1 == 0
}

// xorMask returns the XOR mask to apply to the addressed signal at
// cycle, and records firing. Its callers have asked misses first.
func (p *Plane) xorMask(cycle int64, router int, kind Kind, port, vc int) uint32 {
	var mask uint32
	for i := range p.faults {
		f := &p.faults[i]
		s := &f.Site
		if s.Router != router || s.Kind != kind || s.Port != port || s.VC != vc {
			continue
		}
		if f.Type == Transient && kind.IsRegister() {
			// Transient register upsets are applied destructively to the
			// stored state via TransientRegisterFlips, not on the read path.
			continue
		}
		if !f.ActiveAt(cycle) {
			continue
		}
		mask |= 1 << uint(f.Bit)
		if p.firedAt[i] < 0 {
			p.firedAt[i] = cycle
		}
	}
	return mask
}

// TransientRegisterFlips returns the transient faults targeting register
// sites of the given router whose injection cycle is cycle. The caller
// (the router) must flip the addressed bit in the actual stored state,
// modelling a single-event upset that persists until the register is
// rewritten. Returned faults are marked as fired.
func (p *Plane) TransientRegisterFlips(cycle int64, router int) []Fault {
	if p == nil || len(p.faults) == 0 || cycle < p.minCycle || cycle > p.maxCycle {
		return nil
	}
	var out []Fault
	for i := range p.faults {
		f := &p.faults[i]
		if f.Type != Transient || !f.Site.Kind.IsRegister() {
			continue
		}
		if f.Site.Router != router || f.Cycle != cycle {
			continue
		}
		out = append(out, *f)
		if p.firedAt[i] < 0 {
			p.firedAt[i] = cycle
		}
	}
	return out
}

// Word applies any matching fault to an integer-encoded signal value
// (direction codes, VC indices, state encodings, counters) and returns
// the possibly corrupted value. Values are treated as Width-bit
// unsigned words, so a flipped high bit can push the value out of its
// legal range — the illegal outputs invariances 2 and 19 watch for.
func (p *Plane) Word(cycle int64, router int, kind Kind, port, vc int, value int) int {
	// Too large to inline (go build -gcflags=-m=2 prices Word and Vec well
	// over the budget of 80, with the scan outlined or not), so a consult
	// is a call, which routers make only inside their own fault window
	// (Router.fWord). What it must not cost there is the scan.
	if p.misses(cycle, kind) {
		return value
	}
	m := p.xorMask(cycle, router, kind, port, vc)
	if m == 0 {
		return value
	}
	return int(uint32(value) ^ m)
}

// Vec applies any matching fault to a bit-vector signal.
func (p *Plane) Vec(cycle int64, router int, kind Kind, port, vc int, value uint32) uint32 {
	if p.misses(cycle, kind) {
		return value
	}
	return value ^ p.xorMask(cycle, router, kind, port, vc)
}
