package campaign

import (
	"math"
	"time"
)

// EstimateETA converts a live faults/sec reading into the expected
// time to finish the remaining runs, reporting ok=false whenever the
// estimate would be nonsense rather than letting the caller divide by
// a degenerate rate. The degenerate cases are real, not theoretical:
// a resumed shard's rate (ShardRunStats.FaultsPerSec) is zero before the
// first newly executed run completes, and an all-fast-path burst can
// push the measured rate to +Inf when the elapsed wall time is still ~0.
func EstimateETA(remaining int, faultsPerSec float64) (time.Duration, bool) {
	if remaining <= 0 {
		return 0, false
	}
	if faultsPerSec <= 0 || math.IsNaN(faultsPerSec) || math.IsInf(faultsPerSec, 0) {
		return 0, false
	}
	return time.Duration(float64(remaining) / faultsPerSec * float64(time.Second)), true
}
