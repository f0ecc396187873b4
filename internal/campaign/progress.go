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

// FleetProgress folds the per-shard progress of a distributed campaign
// into one campaign-level view, under the same degenerate-rate rules
// as EstimateETA. Requeues make the naive fold wrong in two ways this
// type exists to absorb:
//
//   - a shard restarting on a survivor reports done=0 again; summing
//     raw reports would make campaign progress move backward (and an
//     "executed this interval" delta go negative). Update keeps the
//     per-shard high-water mark instead, so Done is monotonic.
//   - a resumed shard replays checkpointed runs near-instantly, so a
//     naive rate sample spikes toward +Inf and the ETA collapses to
//     ~0. Rates are summed only over shards with a live, finite
//     sample, and ETA falls back to unknown rather than ±Inf.
//
// Zero value is ready to use.
type FleetProgress struct {
	total   int
	done    map[int]int     // shard index → high-water done count
	rate    map[int]float64 // shard index → last live faults/sec sample
	totalBy map[int]int     // shard index → planned runs (for Remaining)
}

// SetTotal declares the campaign-wide run count (the unsharded
// universe size). Optional: totals reported per shard accumulate too.
func (f *FleetProgress) SetTotal(total int) { f.total = total }

// Update folds one shard progress sample. done may regress (a requeued
// shard restarting from zero) — the high-water mark wins. rate is the
// shard's live faults/sec, taken at face value only when finite and
// positive; pass 0 when the shard has no live sample.
func (f *FleetProgress) Update(shard, done, total int, rate float64) {
	if f.done == nil {
		f.done = make(map[int]int)
		f.rate = make(map[int]float64)
		f.totalBy = make(map[int]int)
	}
	if done > f.done[shard] {
		f.done[shard] = done
	}
	if total > f.totalBy[shard] {
		f.totalBy[shard] = total
	}
	if rate > 0 && !math.IsNaN(rate) && !math.IsInf(rate, 0) {
		f.rate[shard] = rate
	} else {
		delete(f.rate, shard)
	}
}

// Finish marks a shard complete: done snaps to its total and its rate
// sample is retired (a finished shard contributes no throughput).
func (f *FleetProgress) Finish(shard int) {
	if f.totalBy == nil {
		return
	}
	if t := f.totalBy[shard]; t > f.done[shard] {
		f.done[shard] = t
	}
	delete(f.rate, shard)
}

// Done is the campaign-wide completed-run count (monotonic).
func (f *FleetProgress) Done() int {
	n := 0
	for _, d := range f.done {
		n += d
	}
	return n
}

// Total is the campaign-wide planned run count: SetTotal if declared,
// else the sum of per-shard totals seen so far.
func (f *FleetProgress) Total() int {
	if f.total > 0 {
		return f.total
	}
	n := 0
	for _, t := range f.totalBy {
		n += t
	}
	return n
}

// Rate is the aggregate faults/sec across shards with a live finite
// sample.
func (f *FleetProgress) Rate() float64 {
	r := 0.0
	for _, v := range f.rate {
		r += v
	}
	return r
}

// ETA estimates time to campaign completion from the aggregate rate,
// with EstimateETA's guarantees: never negative, never ±Inf/NaN,
// ok=false when there is no usable signal (nothing remaining, or no
// shard currently has a live rate sample).
func (f *FleetProgress) ETA() (time.Duration, bool) {
	return EstimateETA(f.Total()-f.Done(), f.Rate())
}
