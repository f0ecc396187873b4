package trace

import (
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestEveryPacketFollowsXY is a whole-substrate validation: record the
// path of every packet in a fault-free run and check, hop by hop, that
// it is exactly the XY path — X fully resolved first, then Y, minimal
// throughout, ejected at the destination.
func TestEveryPacketFollowsXY(t *testing.T) {
	rc := router.Default(topology.NewMesh(5, 4))
	n := sim.MustNew(sim.Config{Router: rc, InjectionRate: 0.12, Seed: 77}, nil)
	pm := NewPathMonitor()
	n.AttachMonitor(pm)
	n.Run(1500)
	n.Drain(8000)

	m := n.Mesh()
	srcdst := map[uint64][2]int{}
	for _, e := range n.Ejections() {
		srcdst[e.Flit.PacketID] = [2]int{e.Flit.Src, e.Flit.Dest}
	}
	if len(pm.Packets()) == 0 {
		t.Fatal("no paths recorded")
	}
	checked := 0
	for _, pkt := range pm.Packets() {
		sd, ok := srcdst[pkt]
		if !ok {
			continue // packet still queued when the run ended
		}
		hops := pm.Path(pkt)
		if err := ValidatePath(m, hops, sd[0], sd[1]); err != nil {
			t.Fatalf("packet %d: %v (hops=%v)", pkt, err, hops)
		}
		// XY discipline: once a hop moves in Y, no later hop moves in X.
		movedY := false
		for _, h := range hops {
			switch h.OutPort {
			case topology.North, topology.South:
				movedY = true
			case topology.East, topology.West:
				if movedY {
					t.Fatalf("packet %d turned back into X after Y: %v", pkt, hops)
				}
			}
		}
		// Path length: exactly the Manhattan distance plus the ejection hop.
		if want := m.HopDistance(sd[0], sd[1]) + 1; len(hops) != want {
			t.Fatalf("packet %d took %d hops, want %d", pkt, len(hops), want)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d packets checked", checked)
	}
}

// TestAdaptivePathsStayMinimal: under the adaptive algorithm paths may
// differ from XY but must remain minimal and well-formed.
func TestAdaptivePathsStayMinimal(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	rc.Alg = routing.Adaptive{}
	n := sim.MustNew(sim.Config{Router: rc, InjectionRate: 0.15, Seed: 13}, nil)
	pm := NewPathMonitor()
	n.AttachMonitor(pm)
	n.Run(1500)
	n.Drain(8000)

	m := n.Mesh()
	srcdst := map[uint64][2]int{}
	for _, e := range n.Ejections() {
		srcdst[e.Flit.PacketID] = [2]int{e.Flit.Src, e.Flit.Dest}
	}
	checked := 0
	for _, pkt := range pm.Packets() {
		sd, ok := srcdst[pkt]
		if !ok {
			continue
		}
		hops := pm.Path(pkt)
		if err := ValidatePath(m, hops, sd[0], sd[1]); err != nil {
			t.Fatalf("packet %d: %v", pkt, err)
		}
		if want := m.HopDistance(sd[0], sd[1]) + 1; len(hops) != want {
			t.Fatalf("packet %d non-minimal: %d hops, want %d", pkt, len(hops), want)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d packets checked", checked)
	}
}

// TestValidatePathRejections covers the validator's error branches.
func TestValidatePathRejections(t *testing.T) {
	m := topology.NewMesh(3, 3)
	mk := func(hops ...Hop) []Hop { return hops }
	cases := []struct {
		name string
		hops []Hop
		src  int
		dst  int
	}{
		{"empty", nil, 0, 1},
		{"wrong-start", mk(Hop{Router: 2, InPort: topology.Local, OutPort: topology.Local}), 0, 2},
		{"not-local-entry", mk(Hop{Router: 0, InPort: topology.East, OutPort: topology.Local}), 0, 0},
		{"early-ejection", mk(
			Hop{Router: 0, InPort: topology.Local, OutPort: topology.Local},
			Hop{Router: 1, InPort: topology.West, OutPort: topology.Local},
		), 0, 1},
		{"missing-port", mk(Hop{Router: 0, InPort: topology.Local, OutPort: topology.West}), 0, 1},
		{"mid-flight-end", mk(Hop{Router: 0, InPort: topology.Local, OutPort: topology.East}), 0, 1},
		{"broken-chain", mk(
			Hop{Router: 0, InPort: topology.Local, OutPort: topology.East},
			Hop{Router: 5, InPort: topology.West, OutPort: topology.Local},
		), 0, 5},
		{"wrong-dest", mk(
			Hop{Router: 0, InPort: topology.Local, OutPort: topology.East},
			Hop{Router: 1, InPort: topology.West, OutPort: topology.Local},
		), 0, 7},
	}
	for _, c := range cases {
		if err := ValidatePath(m, c.hops, c.src, c.dst); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A correct two-hop path passes.
	good := mk(
		Hop{Router: 0, InPort: topology.Local, OutPort: topology.East},
		Hop{Router: 1, InPort: topology.West, OutPort: topology.Local},
	)
	if err := ValidatePath(m, good, 0, 1); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
}
