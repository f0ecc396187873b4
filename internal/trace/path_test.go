package trace

import (
	"fmt"
	"sort"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// The path recorder and validator the substrate tests (trace_test.go,
// run_test.go) hold the simulator's routing to: every packet's header is
// followed hop by hop, and the recorded path must chain across real links
// from source to destination.

// Hop is one router traversal of a flit.
type Hop struct {
	Cycle   int64
	Router  int
	InPort  topology.Direction // port the flit entered on (Local = injected here)
	OutPort topology.Direction // port the flit left through
}

// PathMonitor records, per packet, the sequence of router hops its
// header flit takes. It implements sim.Monitor and never perturbs the
// network.
type PathMonitor struct {
	sim.BaseMonitor
	paths map[uint64][]Hop
	// inPort tracks the input port a packet's header occupies at each
	// router so the departure can be labelled with its entry port.
	entry map[packetAt]topology.Direction
}

type packetAt struct {
	pkt    uint64
	router int
}

// NewPathMonitor returns an empty path recorder.
func NewPathMonitor() *PathMonitor {
	return &PathMonitor{
		paths: make(map[uint64][]Hop),
		entry: make(map[packetAt]topology.Direction),
	}
}

// RouterCycle implements sim.Monitor.
func (p *PathMonitor) RouterCycle(r *router.Router, s *router.Signals) {
	// Arrivals establish the entry port of a packet at this router.
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if a.Flit == nil || !a.Flit.Kind.IsHead() {
			continue
		}
		p.entry[packetAt{a.Flit.PacketID, s.Router}] = topology.Direction(a.Port)
	}
	// Header departures extend the path.
	for i := range s.Departures {
		d := &s.Departures[i]
		if d.Flit == nil || !d.Flit.Kind.IsHead() {
			continue
		}
		key := packetAt{d.Flit.PacketID, s.Router}
		in, ok := p.entry[key]
		if !ok {
			in = topology.Local // injected at this router's NI
		} else {
			delete(p.entry, key)
		}
		p.paths[d.Flit.PacketID] = append(p.paths[d.Flit.PacketID], Hop{
			Cycle:   s.Cycle,
			Router:  s.Router,
			InPort:  in,
			OutPort: topology.Direction(d.OutPort),
		})
	}
}

// CloneMonitor implements sim.CloneableMonitor by deep-copying the
// recorded paths and in-flight entry table, so a forked network keeps
// observing — monitors that do not implement the interface are dropped
// by Network.Clone.
func (p *PathMonitor) CloneMonitor() sim.Monitor {
	c := &PathMonitor{
		paths: make(map[uint64][]Hop, len(p.paths)),
		entry: make(map[packetAt]topology.Direction, len(p.entry)),
	}
	for id, hops := range p.paths {
		c.paths[id] = append([]Hop(nil), hops...)
	}
	for k, v := range p.entry {
		c.entry[k] = v
	}
	return c
}

// Path returns the recorded hops of a packet, in traversal order.
func (p *PathMonitor) Path(pkt uint64) []Hop {
	hops := append([]Hop(nil), p.paths[pkt]...)
	sort.Slice(hops, func(i, j int) bool { return hops[i].Cycle < hops[j].Cycle })
	return hops
}

// Packets returns the tracked packet ids in ascending order.
func (p *PathMonitor) Packets() []uint64 {
	out := make([]uint64, 0, len(p.paths))
	for id := range p.paths {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ValidatePath checks a recorded path against the mesh and a source/
// destination pair: hops must chain across real links, start at the
// source, and end by ejecting at the destination.
func ValidatePath(m topology.Mesh, hops []Hop, src, dest int) error {
	if len(hops) == 0 {
		return fmt.Errorf("trace: empty path")
	}
	if hops[0].Router != src {
		return fmt.Errorf("trace: path starts at router %d, not source %d", hops[0].Router, src)
	}
	if hops[0].InPort != topology.Local {
		return fmt.Errorf("trace: first hop entered on %v, not Local", hops[0].InPort)
	}
	for i := 0; i < len(hops); i++ {
		h := hops[i]
		last := i == len(hops)-1
		if h.OutPort == topology.Local {
			if !last {
				return fmt.Errorf("trace: ejection at hop %d before the path ends", i)
			}
			if h.Router != dest {
				return fmt.Errorf("trace: ejected at router %d, not destination %d", h.Router, dest)
			}
			return nil
		}
		next, ok := m.Neighbor(h.Router, h.OutPort)
		if !ok {
			return fmt.Errorf("trace: hop %d leaves through missing port %v of router %d", i, h.OutPort, h.Router)
		}
		if last {
			return fmt.Errorf("trace: path ends mid-flight at router %d", h.Router)
		}
		if hops[i+1].Router != next {
			return fmt.Errorf("trace: hop %d goes to router %d but next hop is at %d", i, next, hops[i+1].Router)
		}
		if hops[i+1].InPort != h.OutPort.Opposite() {
			return fmt.Errorf("trace: hop %d arrives on %v, expected %v", i+1, hops[i+1].InPort, h.OutPort.Opposite())
		}
	}
	return nil
}
