package sim

import (
	"nocalert/internal/flit"
	"nocalert/internal/router"
)

// Monitor observes the network without perturbing it — the contract the
// paper demands of NoCAlert ("the checkers never interfere with, or
// interrupt, the operation of the NoC"). The NoCAlert checker fabric,
// the ForEVeR baseline and the golden-reference recorder all attach as
// monitors.
type Monitor interface {
	// RouterCycle is called once per router per cycle, after the router
	// has evaluated, with its full signal record.
	RouterCycle(r *router.Router, s *router.Signals)
	// PacketInjected is called when a source NI accepts a new packet
	// into its injection queue. p is the queue's copy, good for the call.
	PacketInjected(cycle int64, node int, p *flit.Packet)
	// FlitEjected is called when a destination NI ejects a flit.
	FlitEjected(cycle int64, node int, f *flit.Flit)
	// EndCycle is called once per cycle after all routers and NIs have
	// been served.
	EndCycle(cycle int64)
}

// SignalsOnly is implemented by a monitor that reads of a router's cycle
// its Router and Cycle and the four arbiter banks with Signals.Granted,
// and nothing else: no snapshot (Signals.Pre), no other signal. While
// every attached monitor says so — or none is attached — Network.Step's
// fast-engine cycles are quiet (router.BeginUnobserved): no snapshot is
// taken, the record holds only the departures and those banks, and a
// router with nothing to do but absorb returning credits does that alone
// (router.CreditStep), granting nothing and shown to no monitor. A monitor
// that does not implement it is taken to read everything.
type SignalsOnly interface {
	Monitor
	SignalsOnly()
}

// CloneableMonitor is implemented by monitors whose state must survive
// a network fork (e.g. ForEVeR's in-flight notification counters).
// Network.Clone clones such monitors along with the network; monitors
// that do not implement it are dropped from the copy and must be
// re-attached.
type CloneableMonitor interface {
	Monitor
	CloneMonitor() Monitor
}

// BaseMonitor is a no-op Monitor for embedding; override the callbacks
// you need.
type BaseMonitor struct{}

// RouterCycle implements Monitor.
func (BaseMonitor) RouterCycle(*router.Router, *router.Signals) {}

// PacketInjected implements Monitor.
func (BaseMonitor) PacketInjected(int64, int, *flit.Packet) {}

// FlitEjected implements Monitor.
func (BaseMonitor) FlitEjected(int64, int, *flit.Flit) {}

// EndCycle implements Monitor.
func (BaseMonitor) EndCycle(int64) {}

// NodeTracker is implemented by a monitor that keeps its end-to-end
// state per node and can answer for the whole mesh while being shown
// only some nodes' events, taking everyone else's from the golden run
// (ForEVeR, once it follows a golden monitor). A Frontier calls
// TrackNode the first time a node joins it, at a cycle boundary or in
// mid-cycle before any of the cycle's ejections and its end are shown:
// from that cycle on the monitor is shown node's ejections, and it must
// bring its state for node up to the boundary by its own means.
type NodeTracker interface {
	TrackNode(node int)
}
