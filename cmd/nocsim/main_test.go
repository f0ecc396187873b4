package main

import (
	"math"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestSweepDeliveredIsAcceptedThroughput holds the sweep's "delivered"
// column to what the network accepts in its steady state. Past the knee
// (≈ 0.35 flits/node/cycle for uniform XY traffic on the 8×8 mesh) it
// must read the saturation throughput and not echo the offered load, as
// counting the drain's ejections made it do; well below the knee it must
// read the offered load.
func TestSweepDeliveredIsAcceptedThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a saturated 8x8 mesh")
	}
	mesh, err := topology.ParseMesh("8x8")
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 8000
	delivered := func(rate float64) float64 {
		n := sim.MustNew(sim.Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 1}, nil)
		n.Run(cycles)
		n.Drain(20 * cycles)
		return steadyDelivered(n, cycles)
	}
	if got := delivered(0.45); got >= 0.40 {
		t.Errorf("offered 0.45 on a saturated mesh: delivered %.4f, want below 0.40", got)
	}
	if got := delivered(0.05); math.Abs(got-0.05) > 0.05*0.05 {
		t.Errorf("offered 0.05: delivered %.4f, want within 5%% of the offered load", got)
	}
}
