package main

import (
	"fmt"
	"io"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
)

// progressPrinter returns the Progress callback both campaign modes
// share: a \r-rewritten status line emitted on every new 5% bucket
// (and at completion), with a live faults/sec + ETA suffix once a
// trustworthy throughput sample exists.
//
// The ETA is deliberately withheld until this process has completed at
// least one run beyond the first callback's baseline. On a resumed
// shard the first callback already carries the checkpoint's completed
// runs, and the throughput gauge at that instant is whatever the
// registry last held — zero, a stale value from an earlier campaign in
// the same process, or +Inf from a microsecond fast-path burst — so an
// ETA printed before a local completion divides the remaining work by
// a rate that measured nothing. campaign.EstimateETA screens the
// degenerate rates; the baseline check screens the stale ones.
func progressPrinter(w io.Writer, label string, reg *metrics.Registry) func(done, total int) {
	lastBucket := -1
	baseline := -1 // done at the first callback: resumed runs, not local progress
	return func(done, total int) {
		if baseline < 0 {
			baseline = done
		}
		pct := 0
		if total > 0 {
			pct = done * 100 / total
		}
		bucket := pct / 5
		if bucket <= lastBucket && done != total {
			return
		}
		lastBucket = bucket
		line := fmt.Sprintf("\r%s: %d/%d runs (%d%%)", label, done, total, pct)
		if done > baseline && done < total && reg != nil {
			fps := reg.Gauge(campaign.MetricFaultsPerSec).Value()
			if eta, ok := campaign.EstimateETA(total-done, fps); ok {
				line += fmt.Sprintf(" | %.1f faults/sec, ETA %s", fps, eta.Round(time.Second))
			}
		}
		fmt.Fprint(w, line)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}
