package campaign

import (
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/trace"
)

// Metric names Run publishes when Options.Metrics is set. A family is
// kept only while something outside its own test reads it (metricReaders
// in metrics_test.go names each reader, and TestMetricFamiliesHaveReaders
// holds the registry to that list); every other per-run number is in the
// run record and its run span, and is read there.
const (
	// MetricFastPathHits counts runs that took the fast path: faults
	// that never fired, so the run reconverged without diverging
	// (RunRecord.FastPath). MetricReconvergenceHits counts the other runs
	// that ended early because their post-fault state reconverged with
	// the golden run's (the divergence frontier emptied); MetricFullSimRuns
	// counts runs that simulated window, drain and horizon end to end.
	// The three sum to the runs completed.
	MetricFastPathHits      = "campaign_fastpath_hits_total"
	MetricReconvergenceHits = "campaign_reconvergence_hits_total"
	MetricFullSimRuns       = "campaign_fullsim_runs_total"
	// MetricForkedRuns counts runs that warm-started from a golden
	// snapshot above cycle 0, skipping their [0, injection cycle) prefix.
	MetricForkedRuns = "campaign_forked_runs_total"
	// MetricFrontierRuns counts runs driven by the divergence-frontier
	// delta engine.
	MetricFrontierRuns = "campaign_frontier_runs_total"
	// MetricWarmstartSaved counts the prefix cycles injection-point
	// forking never simulated, summed over runs.
	MetricWarmstartSaved = "campaign_warmstart_cycles_saved"
	// MetricSimulatedCycles counts cycles faulty runs actually stepped;
	// MetricSynthesizedCycles counts cycles
	// whose outcome was synthesized instead (reconvergence tails,
	// frozen drains and horizons). Together they keep warm-start and
	// synthesis savings out of the honest throughput accounting.
	MetricSimulatedCycles   = "campaign_cycles_simulated_total"
	MetricSynthesizedCycles = "campaign_cycles_synthesized_total"
	// MetricSnapshotBytes is a gauge holding the estimated memory
	// footprint of the golden snapshots, one per distinct injection cycle.
	MetricSnapshotBytes = "campaign_snapshot_bytes"
	// MetricTimelineBytes is a gauge holding the estimated memory
	// footprint of the golden signal transcripts (window and drain)
	// backing the frontier engine.
	MetricTimelineBytes = "campaign_timeline_bytes"
	// MetricGoldenCacheHits / Misses count campaigns by how they came by
	// their golden artefact: found built in the GoldenCache, or built it
	// themselves (every campaign without a cache, and one whose key's
	// artefact is not finished yet). MetricGoldenCacheBytes is a gauge
	// holding the estimated bytes the cache retains.
	MetricGoldenCacheHits   = "campaign_golden_cache_hits_total"
	MetricGoldenCacheMisses = "campaign_golden_cache_misses_total"
	MetricGoldenCacheBytes  = "campaign_golden_cache_bytes"
	// MetricGoldenGroupWait is the per-run histogram of the time a run
	// stood blocked on its injection cycle's golden group, which the
	// warm-up publishes while earlier cycles' runs execute (seconds,
	// exponential buckets 1 ms … ~32 s). All zero when the artefact came
	// whole from the cache; its sum is about what the runs waited for the
	// mainline otherwise.
	MetricGoldenGroupWait = "campaign_golden_group_wait_seconds"
)

// observeGoldenCache counts one campaign's golden-cache outcome, a hit or
// a miss, and publishes the cache's size. Both counters are registered on
// first use, so a scrape shows zeros rather than missing families.
func observeGoldenCache(reg *metrics.Registry, hit bool, cacheBytes int64) {
	hits, misses := reg.Counter(MetricGoldenCacheHits), reg.Counter(MetricGoldenCacheMisses)
	if hit {
		hits.Inc()
	} else {
		misses.Inc()
	}
	reg.Gauge(MetricGoldenCacheBytes).Set(float64(cacheBytes))
}

// groupWaitBounds is the MetricGoldenGroupWait bucket layout.
var groupWaitBounds = metrics.ExponentialBounds(0.001, 2, 16)

// instruments holds the pre-resolved campaign instruments so the
// per-run path does one pointer hop per update instead of a registry
// lookup.
type instruments struct {
	fastHits     *metrics.Counter
	reconvHits   *metrics.Counter
	fullRuns     *metrics.Counter
	forkedRuns   *metrics.Counter
	frontierRuns *metrics.Counter
	warmSaved    *metrics.Counter
	simCycles    *metrics.Counter
	synthCycles  *metrics.Counter
	groupWait    *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		fastHits:     reg.Counter(MetricFastPathHits),
		reconvHits:   reg.Counter(MetricReconvergenceHits),
		fullRuns:     reg.Counter(MetricFullSimRuns),
		forkedRuns:   reg.Counter(MetricForkedRuns),
		frontierRuns: reg.Counter(MetricFrontierRuns),
		warmSaved:    reg.Counter(MetricWarmstartSaved),
		simCycles:    reg.Counter(MetricSimulatedCycles),
		synthCycles:  reg.Counter(MetricSynthesizedCycles),
		groupWait:    reg.Histogram(MetricGoldenGroupWait, groupWaitBounds),
	}
}

// observe records one completed run; the instruments are atomic and need
// no lock. st is the run's honest cycle accounting: synthesized and
// skipped-prefix cycles feed their own counters instead of the simulated
// one.
func (in *instruments) observe(rec *trace.RunRecord, groupWait time.Duration, exit ExitPath, st *runStats) {
	in.groupWait.Observe(groupWait.Seconds())
	if st.forked {
		in.forkedRuns.Inc()
	}
	if st.frontier {
		in.frontierRuns.Inc()
	}
	in.warmSaved.Add(st.warmSaved)
	in.simCycles.Add(st.simulated)
	in.synthCycles.Add(st.synthesized)
	switch {
	case rec.FastPath:
		in.fastHits.Inc()
	case exit == ExitReconverged:
		in.reconvHits.Inc()
	default:
		in.fullRuns.Inc()
	}
}

// rateClock is what a Run's live rate divides by: the time since its
// worker pool started less its stalls, the stretches in which a worker
// stood blocked on a golden group the warm-up had not published yet and
// none was executing a run. The wait for the first group is the first
// stall, so the clock in effect starts when that group is ready; with
// the stalls left in, the rate would sag at every later injection cycle
// while nothing is wrong, and every ETA derived from it with it. The
// rate says what the runs cost, however many cycles the fast paths
// skipped. The caller serializes the calls.
type rateClock struct {
	start            time.Time
	blocked, running int
	stallAt          time.Time     // when the open stall began
	stalled          time.Duration // closed stalls
}

func (c *rateClock) stalling() bool { return c.blocked > 0 && c.running == 0 }

// move records workers entering or leaving a group wait and a run.
func (c *rateClock) move(blocked, running int) {
	was := c.stalling()
	c.blocked += blocked
	c.running += running
	switch now := c.stalling(); {
	case now && !was:
		c.stallAt = time.Now()
	case was && !now:
		c.stalled += time.Since(c.stallAt)
	}
}

// active is the time the rate divides by.
func (c *rateClock) active() time.Duration {
	d := time.Since(c.start) - c.stalled
	if c.stalling() {
		d -= time.Since(c.stallAt)
	}
	return d
}
