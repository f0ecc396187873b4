package main

import (
	"fmt"
	"io"
	"time"

	"nocalert/internal/campaign"
)

// progressPrinter returns the RunShard Progress callback: a
// \r-rewritten status line emitted on every new 5% bucket (and at
// completion), with the shard's live faults/sec and an ETA once that
// rate measures something. The rate is the shard's own, zero until a run
// of this process completes (on a resumed shard the first line already
// counts the checkpoint's runs), and campaign.EstimateETA screens it and
// the degenerate rates, such as +Inf from a microsecond fast-path burst.
func progressPrinter(w io.Writer, label string) func(done, total int, st campaign.ShardRunStats) {
	lastBucket := -1
	return func(done, total int, st campaign.ShardRunStats) {
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
		if eta, ok := campaign.EstimateETA(total-done, st.FaultsPerSec); ok {
			line += fmt.Sprintf(" | %.1f faults/sec, ETA %s", st.FaultsPerSec, eta.Round(time.Second))
		}
		fmt.Fprint(w, line)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}
