package trace

import (
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// The path recorder must survive network forks: monitors that do not
// implement CloneableMonitor are silently dropped from the copy.
var _ sim.CloneableMonitor = (*PathMonitor)(nil)

// TestMonitorsSurviveClone is the regression test for the silent-drop
// bug: attach the path recorder, fork the network, and require the fork
// to keep observing while leaving the original's records untouched.
func TestMonitorsSurviveClone(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	rc := router.Default(mesh)
	n := sim.MustNew(sim.Config{Router: rc, InjectionRate: 0.2, Seed: 7}, nil)
	pm := NewPathMonitor()
	n.AttachMonitor(pm)
	n.Run(200)
	atFork := len(pm.Packets())
	if atFork == 0 {
		t.Fatal("no packets after 200 loaded cycles; test premise broken")
	}

	c := n.Clone(nil)
	if got := len(c.Monitors()); got != 1 {
		t.Fatalf("clone carried %d monitors, want 1", got)
	}
	cpm, ok := c.Monitors()[0].(*PathMonitor)
	if !ok {
		t.Fatalf("clone's monitor has the wrong type: %T", c.Monitors()[0])
	}
	if cpm == pm {
		t.Fatal("clone shares the monitor instance with the original")
	}
	if len(cpm.Packets()) != atFork {
		t.Fatalf("clone's recorder starts with %d packets, want the fork-point %d", len(cpm.Packets()), atFork)
	}

	// Only the clone advances: its record grows, the original's does not.
	c.Run(200)
	if len(cpm.Packets()) <= atFork {
		t.Fatal("clone's PathMonitor stopped observing after the fork")
	}
	if len(pm.Packets()) != atFork {
		t.Fatalf("running the clone mutated the original's record (%d != %d)", len(pm.Packets()), atFork)
	}

	// Clone paths validate hop by hop, like the original's.
	for _, id := range cpm.Packets() {
		hops := cpm.Path(id)
		if len(hops) == 0 || hops[len(hops)-1].OutPort != topology.Local {
			continue // in flight at snapshot time
		}
		src := hops[0].Router
		dest := hops[len(hops)-1].Router
		if err := ValidatePath(mesh, hops, src, dest); err != nil {
			t.Fatalf("clone recorded invalid path for packet %d: %v", id, err)
		}
	}
}
