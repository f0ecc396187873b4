package main

import (
	"math"
	"strings"
	"testing"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
)

// TestProgressPrinterETAGuards pins the resumed-shard regression: the
// first progress callback of a resumed shard arrives with the
// checkpoint's completed runs already counted, at a moment when the
// faults/sec gauge holds no throughput measured by this process (zero,
// a stale positive value from an earlier campaign in the same process,
// or ±Inf). No ETA may be printed until a run completes locally.
func TestProgressPrinterETAGuards(t *testing.T) {
	t.Run("resumed baseline with stale gauge", func(t *testing.T) {
		reg := metrics.NewRegistry()
		// A previous campaign in this process left a plausible rate
		// behind; it measured nothing about the resumed shard.
		reg.Gauge(campaign.MetricFaultsPerSec).Set(42.0)
		var sb strings.Builder
		report := progressPrinter(&sb, "shard 0/2", reg)
		report(60, 96) // first callback: 60 resumed runs, zero local ones
		if out := sb.String(); strings.Contains(out, "ETA") {
			t.Fatalf("ETA printed before any local completion: %q", out)
		}
		// One locally completed run later the gauge is live again.
		reg.Gauge(campaign.MetricFaultsPerSec).Set(20.0)
		report(65, 96)
		if out := sb.String(); !strings.Contains(out, "ETA") {
			t.Fatalf("ETA missing after local completions: %q", out)
		}
	})

	t.Run("degenerate rates never print", func(t *testing.T) {
		for _, fps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			reg := metrics.NewRegistry()
			reg.Gauge(campaign.MetricFaultsPerSec).Set(fps)
			var sb strings.Builder
			report := progressPrinter(&sb, "campaign", reg)
			report(0, 96)
			report(10, 96)
			if out := sb.String(); strings.Contains(out, "ETA") {
				t.Fatalf("fps=%v: nonsense ETA printed: %q", fps, out)
			}
		}
	})

	t.Run("completion line has no ETA and ends the line", func(t *testing.T) {
		reg := metrics.NewRegistry()
		reg.Gauge(campaign.MetricFaultsPerSec).Set(30)
		var sb strings.Builder
		report := progressPrinter(&sb, "campaign", reg)
		report(0, 96)
		report(96, 96)
		out := sb.String()
		if strings.Contains(out, "ETA") {
			t.Fatalf("ETA printed at completion: %q", out)
		}
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("completion did not end the progress line: %q", out)
		}
		if !strings.Contains(out, "96/96 runs (100%)") {
			t.Fatalf("final line missing: %q", out)
		}
	})

	t.Run("nil registry prints plain progress", func(t *testing.T) {
		var sb strings.Builder
		report := progressPrinter(&sb, "campaign", nil)
		report(0, 10)
		report(5, 10)
		out := sb.String()
		if !strings.Contains(out, "5/10 runs (50%)") || strings.Contains(out, "ETA") {
			t.Fatalf("unexpected output: %q", out)
		}
	})
}
