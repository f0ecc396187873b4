package main

import (
	"math"
	"strings"
	"testing"

	"nocalert/internal/campaign"
)

// TestProgressPrinterETAGuards pins the progress line's ETA to the rate
// the shard measured itself. The first line of a resumed shard arrives
// with the checkpoint's completed runs already counted and no rate, and
// no ETA may be printed until a run completes locally; a degenerate rate
// never prints one.
func TestProgressPrinterETAGuards(t *testing.T) {
	rate := func(fps float64) campaign.ShardRunStats { return campaign.ShardRunStats{FaultsPerSec: fps} }

	t.Run("resumed start prints no ETA", func(t *testing.T) {
		var sb strings.Builder
		report := progressPrinter(&sb, "shard 0/2")
		report(60, 96, campaign.ShardRunStats{}) // first line: 60 resumed runs, zero local ones
		if out := sb.String(); strings.Contains(out, "ETA") || !strings.Contains(out, "60/96 runs (62%)") {
			t.Fatalf("first line of a resumed shard: %q", out)
		}
		// One locally completed run later the shard has a rate.
		report(65, 96, rate(20))
		if out := sb.String(); !strings.Contains(out, "20.0 faults/sec, ETA 2s") {
			t.Fatalf("ETA missing after local completions: %q", out)
		}
	})

	t.Run("degenerate rates never print", func(t *testing.T) {
		for _, fps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			var sb strings.Builder
			report := progressPrinter(&sb, "campaign")
			report(0, 96, rate(fps))
			report(10, 96, rate(fps))
			if out := sb.String(); strings.Contains(out, "ETA") || !strings.Contains(out, "10/96 runs (10%)") {
				t.Fatalf("fps=%v: %q", fps, out)
			}
		}
	})

	t.Run("completion line has no ETA and ends the line", func(t *testing.T) {
		var sb strings.Builder
		report := progressPrinter(&sb, "campaign")
		report(0, 96, campaign.ShardRunStats{})
		report(96, 96, rate(30))
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
}
