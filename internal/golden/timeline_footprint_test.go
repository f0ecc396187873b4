package golden

import (
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestTimelineFootprintPinned pins Timeline.ApproxFootprintBytes to
// its documented arithmetic: 48 bytes per point at capacity plus the
// fixed header. Report.TimelineBytes folds this in, so the estimate
// must track TimelinePoint's actual field set.
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

// TestObserveCountersMatchesObserve steps one network under both
// recorders: the counters-only points must carry exactly Observe's
// counters, cycle for cycle, with the two hashes left zero.
func TestObserveCountersMatchesObserve(t *testing.T) {
	n, err := sim.New(sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(50)
	fork := len(n.Ejections())
	full, counters := NewTimeline(100), NewTimeline(100)
	for i := 0; i < 100; i++ {
		n.Step()
		full.Observe(n, n.Ejections()[fork:])
		counters.ObserveCounters(n, n.Ejections()[fork:])
	}
	if len(n.Ejections()) == fork {
		t.Fatal("no ejections in the window: the test compares nothing")
	}
	for c := n.Cycle() - 99; c <= n.Cycle(); c++ {
		want, ok1 := full.At(c)
		got, ok2 := counters.At(c)
		if !ok1 || !ok2 {
			t.Fatalf("cycle %d missing from a timeline", c)
		}
		if got.State != 0 || got.EjectHash != 0 {
			t.Fatalf("cycle %d: counters-only point carries hashes %x/%x", c, got.State, got.EjectHash)
		}
		want.State, want.EjectHash = 0, 0
		if got != want {
			t.Fatalf("cycle %d: counters %+v, Observe recorded %+v", c, got, want)
		}
	}
	if counters.ApproxFootprintBytes() != full.ApproxFootprintBytes() {
		t.Error("the two recorders report different footprints for the same capacity")
	}
}
