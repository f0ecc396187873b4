package campaign

import (
	"math"
	"testing"
	"time"
)

// TestEstimateETAGuards is the regression test for the resumed-shard
// ETA bug: the progress line used to divide the remaining run count by
// whatever the throughput gauge held, which before the first locally
// completed run of a resumed shard is zero, stale, or ±Inf — printing
// a nonsense ETA. EstimateETA must refuse every degenerate rate.
func TestEstimateETAGuards(t *testing.T) {
	bad := []struct {
		name      string
		remaining int
		fps       float64
	}{
		{"zero rate", 10, 0},
		{"negative rate", 10, -3},
		{"NaN rate", 10, math.NaN()},
		{"+Inf rate (fast-path burst at t~0)", 10, math.Inf(1)},
		{"-Inf rate", 10, math.Inf(-1)},
		{"nothing remaining", 0, 25},
		{"negative remaining", -4, 25},
	}
	for _, c := range bad {
		if eta, ok := EstimateETA(c.remaining, c.fps); ok {
			t.Errorf("%s: got ETA %v, want no estimate", c.name, eta)
		}
	}

	eta, ok := EstimateETA(50, 25)
	if !ok {
		t.Fatal("healthy rate rejected")
	}
	if want := 2 * time.Second; eta != want {
		t.Fatalf("ETA = %v, want %v", eta, want)
	}
}
