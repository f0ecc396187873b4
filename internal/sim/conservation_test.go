package sim

import (
	"fmt"
	"math"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// inFabric is a monitor that counts, over the routers a cycle steps, the
// flits at the start of the cycle: buffered (the pre-cycle snapshot's
// occupancy) and staged on an input port (every staged flit is one of the
// cycle's arrivals). A router the cycle skips is Inert: it holds none. It
// also notes when each flit entered the fabric: a flit staged on a local
// input port at cycle t is one its NI sent at cycle t−1.
type inFabric struct {
	BaseMonitor
	flits int64
	cycle int64 // the cycle being stepped
	sent  map[flitKey]int64
}

type flitKey struct {
	pkt uint64
	seq int
}

func (m *inFabric) RouterCycle(_ *router.Router, s *router.Signals) {
	m.flits += int64(s.BufferOccupancy() + len(s.Arrivals))
	for _, a := range s.Arrivals {
		if a.Port == int(topology.Local) {
			m.sent[flitKey{a.Flit.PacketID, a.Flit.Seq}] = m.cycle - 1
		}
	}
}

func (m *inFabric) EndCycle(t int64) { m.cycle = t + 1 }

// TestFlitConservation holds the flit counters to the fabric: on every
// cycle boundary of a fault-free run, FlitsInjected − FlitsEjected (what
// Quiet and the frontier's Quiet read) must equal the flits in router
// buffers, staged on router inputs and in NI inboxes, over 4×4 and 8×8
// meshes, XY, West-First and minimal-adaptive routing, uniform, transpose
// and hotspot traffic, at a load well below saturation and one well above
// it. The accepted throughput says which side of the knee each run is on:
// below it the fabric delivers what is offered, above it a good deal less.
//
// Over the measured half of each run, its second, the fabric also obeys
// Little's law: the mean of FlitsInjected − FlitsEjected over the half's
// boundaries equals the accepted throughput (flits ejected in the half per
// cycle) times the mean time those flits spent in the fabric, from their
// NI's send to their ejection, within 5 %. The two sides differ by the
// flits whose stay straddles an end of the half: at most 0.6 % below the
// knee and 2.7 % on the saturated 4×4 mesh, whose runs are 4000 cycles
// long for that (at 1000, its hotspot run is 27 % off). The law also needs
// every flit to leave in bounded time, and on the saturated 8×8 mesh some
// do not: flows starve while injection goes on, so the stays of the flits
// that do leave understate the occupancy, by up to 72 % (DESIGN.md §7).
// There it is logged, not checked.
func TestFlitConservation(t *testing.T) {
	for _, mesh := range []topology.Mesh{topology.NewMesh(4, 4), topology.NewMesh(8, 8)} {
		cycles := int64(1000)
		if mesh.W == 4 {
			cycles = 4000
		}
		for _, alg := range []routing.Algorithm{routing.XY{}, routing.WestFirst{}, routing.Adaptive{}} {
			for _, pattern := range []traffic.Pattern{traffic.Uniform{}, traffic.Transpose{}, traffic.NewHotspot(nil, 0.3)} {
				for _, rate := range []float64{0.03, 0.9} {
					name := fmt.Sprintf("%dx%d/%T/%s/%.2f", mesh.W, mesh.H, alg, pattern.Name(), rate)
					rc := router.Default(mesh)
					rc.Alg = alg
					n := MustNew(Config{Router: rc, Pattern: pattern, InjectionRate: rate, Seed: 5}, nil)
					fabric := &inFabric{sent: map[flitKey]int64{}}
					n.AttachMonitor(fabric)
					var occupancy int64 // flit-cycles in the fabric over the measured half
					for n.Cycle() < cycles {
						inFlight := n.InFlight()
						if n.Cycle() >= cycles/2 {
							occupancy += inFlight
						}
						for _, ni := range n.nis {
							inFlight -= int64(len(ni.inbox))
						}
						fabric.flits = 0
						n.Step()
						if fabric.flits != inFlight {
							t.Fatalf("%s: boundary %d: %d flits injected and not ejected less %d in NI inboxes, %d in the routers", name, n.Cycle()-1, n.InFlight(), n.InFlight()-inFlight, fabric.flits)
						}
					}
					var half, stayed int64
					for _, e := range n.Ejections() {
						if e.Cycle >= cycles/2 {
							half++
							stayed += e.Cycle - fabric.sent[flitKey{e.Flit.PacketID, e.Flit.Seq}]
						}
					}
					accepted := float64(half) / float64(int64(mesh.Nodes())*cycles/2)
					if below := rate < 0.1; below && accepted < 0.8*rate || !below && accepted > 0.8*rate {
						t.Errorf("%s: accepted %.3f flits/node/cycle of %.2f offered", name, accepted, rate)
					}
					meanInFlight := float64(occupancy) / float64(cycles/2)
					little := accepted * float64(mesh.Nodes()) * float64(stayed) / float64(half)
					if bounded := rate < 0.1 || mesh.W == 4; !bounded {
						t.Logf("%s: %.2f flits in flight on average, Little's law gives %.2f", name, meanInFlight, little)
					} else if math.Abs(meanInFlight-little) > 0.05*meanInFlight {
						t.Errorf("%s: %.2f flits in flight on average, Little's law gives %.2f (%.4f flits/node/cycle × %.2f cycles in the fabric)",
							name, meanInFlight, little, accepted, float64(stayed)/float64(half))
					}
				}
			}
		}
	}
}
