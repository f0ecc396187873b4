package sim

import (
	"fmt"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// inFabric is a monitor that counts, over the routers a cycle steps, the
// flits at the start of the cycle: buffered (the pre-cycle snapshot's
// occupancy) and staged on an input port (every staged flit is one of the
// cycle's arrivals). A router the cycle skips is Inert: it holds none.
type inFabric struct {
	BaseMonitor
	flits int64
}

func (m *inFabric) RouterCycle(_ *router.Router, s *router.Signals) {
	m.flits += int64(s.BufferOccupancy() + len(s.Arrivals))
}

// TestFlitConservation holds the flit counters to the fabric: on every
// cycle boundary of a fault-free run, FlitsInjected − FlitsEjected (what
// Quiet and the frontier's Quiet read) must equal the flits in router
// buffers, staged on router inputs and in NI inboxes, over 4×4 and 8×8
// meshes, XY, West-First and minimal-adaptive routing, uniform, transpose
// and hotspot traffic, at a load well below saturation and one well above
// it. The accepted throughput says which side of the knee each run is on:
// below it the fabric delivers what is offered, above it a good deal less.
func TestFlitConservation(t *testing.T) {
	const cycles = 1000
	for _, mesh := range []topology.Mesh{topology.NewMesh(4, 4), topology.NewMesh(8, 8)} {
		for _, alg := range []routing.Algorithm{routing.XY{}, routing.WestFirst{}, routing.Adaptive{}} {
			for _, pattern := range []traffic.Pattern{traffic.Uniform{}, traffic.Transpose{}, traffic.NewHotspot(nil, 0.3)} {
				for _, rate := range []float64{0.03, 0.9} {
					name := fmt.Sprintf("%dx%d/%T/%s/%.2f", mesh.W, mesh.H, alg, pattern.Name(), rate)
					rc := router.Default(mesh)
					rc.Alg = alg
					n := MustNew(Config{Router: rc, Pattern: pattern, InjectionRate: rate, Seed: 5}, nil)
					fabric := &inFabric{}
					n.AttachMonitor(fabric)
					for n.Cycle() < cycles {
						inFlight := n.InFlight()
						for _, ni := range n.nis {
							inFlight -= int64(len(ni.inbox))
						}
						fabric.flits = 0
						n.Step()
						if fabric.flits != inFlight {
							t.Fatalf("%s: boundary %d: %d flits injected and not ejected less %d in NI inboxes, %d in the routers", name, n.Cycle()-1, n.InFlight(), n.InFlight()-inFlight, fabric.flits)
						}
					}
					half := int64(len(n.Ejections()))
					for _, e := range n.Ejections() {
						if e.Cycle < cycles/2 {
							half--
						}
					}
					accepted := float64(half) / float64(mesh.Nodes()*cycles/2)
					if below := rate < 0.1; below && accepted < 0.8*rate || !below && accepted > 0.8*rate {
						t.Errorf("%s: accepted %.3f flits/node/cycle of %.2f offered", name, accepted, rate)
					}
				}
			}
		}
	}
}
