package sim

import (
	"fmt"

	"nocalert/internal/flit"
)

// Directed traffic and NI introspection the tests of this package drive
// the simulator with; no campaign needs them.

// ResumeInjection re-enables packet generation.
func (n *Network) ResumeInjection() { n.injecting = true }

// InjectPacket queues one directed packet at src's NI, bypassing the
// random traffic process. It returns the packet id. The packet flows through
// the normal injection path and is announced to monitors like any
// other.
func (n *Network) InjectPacket(src, dest, class int) uint64 {
	if src < 0 || src >= len(n.nis) || dest < 0 || dest >= len(n.nis) {
		panic(fmt.Sprintf("sim: InjectPacket with invalid nodes %d->%d", src, dest))
	}
	if class < 0 || class >= n.rcfg.Classes {
		class = 0
	}
	// The payload is derived from the packet id rather than drawn from
	// the NI's traffic generator: directed injections must not perturb
	// the background traffic stream (campaign forks and A/B runs rely
	// on replay determinism).
	p := &flit.Packet{
		ID:         n.nextPkt,
		Src:        src,
		Dest:       dest,
		Class:      class,
		Length:     n.rcfg.PacketLen(class),
		Payload:    n.nextPkt * 0x9e3779b97f4a7c15,
		InjectedAt: n.cycle,
	}
	n.nextPkt++
	n.pktsOffered++
	n.nis[src].enqueue(p)
	n.niAwake.set(src)
	for _, m := range n.monitors {
		m.PacketInjected(n.cycle, src, p)
	}
	return p.ID
}

// QueueLen returns the number of packets waiting at the source NI.
func (ni *NI) QueueLen() int { return len(ni.queue) }

// Streaming reports whether a packet is mid-injection.
func (ni *NI) Streaming() bool { return len(ni.cur) > 0 }

// clone returns a deep copy of the NI (with private credit windows).
func (ni *NI) clone() *NI {
	return ni.cloneInto(nil, nil)
}
