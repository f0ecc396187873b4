package golden

import (
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestObserveRecordsTheBoundary steps one network and observes it after
// every cycle: each point must carry the network's fingerprint and
// counters at that boundary, and its ejection hash must move exactly on
// the cycles with ejections.
func TestObserveRecordsTheBoundary(t *testing.T) {
	n, err := sim.New(sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(50)
	fork := len(n.Ejections())
	tl := NewTimeline(100)
	for i := 0; i < 100; i++ {
		n.Step()
		tl.Observe(n, n.Ejections()[fork:])
		want := TimelinePoint{
			State:         n.Fingerprint(),
			Ejections:     len(n.Ejections()) - fork,
			FlitsInjected: n.FlitsInjected(),
			FlitsEjected:  n.FlitsEjected(),
			NextPkt:       n.NextPacketID(),
		}
		got := tl.points[n.Cycle()-tl.start]
		if i > 0 {
			prev := tl.points[i-1]
			if moved := got.EjectHash != prev.EjectHash; moved != (got.Ejections > prev.Ejections) {
				t.Fatalf("cycle %d: ejection hash moved = %t with %d → %d ejections", n.Cycle(), moved, prev.Ejections, got.Ejections)
			}
		}
		got.EjectHash = 0
		if got != want {
			t.Fatalf("cycle %d: recorded %+v, the network holds %+v", n.Cycle(), got, want)
		}
	}
	if len(n.Ejections()) == fork {
		t.Fatal("no ejections in the window: the test compares nothing")
	}
}
