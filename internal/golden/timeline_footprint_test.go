package golden

import (
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestTimelineFootprintPinned pins Timeline.ApproxFootprintBytes to
// its documented arithmetic: 48 bytes per point at capacity plus the
// fixed header. The estimate must track TimelinePoint's actual field
// set.
func TestTimelineFootprintPinned(t *testing.T) {
	var nilTL *Timeline
	if got := nilTL.ApproxFootprintBytes(); got != 0 {
		t.Fatalf("nil Timeline footprint = %d, want 0", got)
	}

	tl := NewTimeline(500)
	if got, want := tl.ApproxFootprintBytes(), int64(cap(tl.points))*48+48; got != want {
		t.Fatalf("Timeline.ApproxFootprintBytes() = %d, want %d", got, want)
	}
	if got := tl.ApproxFootprintBytes(); got < 500*48 {
		t.Fatalf("Timeline.ApproxFootprintBytes() = %d, want >= %d for 500 requested points", got, 500*48)
	}
}

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
