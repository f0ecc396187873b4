package campaign

import (
	"strings"
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/trace"
)

// Metric names Run publishes when Options.Metrics is set. Exported so
// drivers (the faultcampaign CLI's ETA line, dashboards, tests) can
// address the instruments without duplicating string literals.
const (
	// MetricRuns counts completed runs (fast-path and simulated alike).
	MetricRuns = "campaign_runs_total"
	// MetricRunsExpected is a gauge holding the campaign's planned run
	// count, so remote observers can compute completion without the
	// report.
	MetricRunsExpected = "campaign_runs_expected"
	// MetricFastPathHits / MetricFastPathMisses split completed runs by
	// whether the early-exit fast path resolved them. Reconverged runs
	// count as fast-path misses (their fault fired); the two counters
	// below split the misses further.
	MetricFastPathHits   = "campaign_fastpath_hits_total"
	MetricFastPathMisses = "campaign_fastpath_misses_total"
	// MetricReconvergenceHits counts runs ended early because their
	// post-fault state reconverged with the golden run's (the divergence
	// frontier emptied); MetricFullSimRuns counts runs that simulated window,
	// drain and horizon end to end. hits + reconvergence + full = runs.
	MetricReconvergenceHits = "campaign_reconvergence_hits_total"
	MetricFullSimRuns       = "campaign_fullsim_runs_total"
	// MetricReconvergenceCycles is the histogram of reconvergence
	// latencies: cycles from injection until the state was golden's again
	// (exponential buckets 1 … 32768 cycles).
	MetricReconvergenceCycles = "campaign_reconvergence_cycles"
	// MetricForkedRuns counts runs that warm-started from a golden
	// snapshot above cycle 0, skipping their [0, injection cycle) prefix.
	MetricForkedRuns = "campaign_forked_runs_total"
	// MetricWarmstartSaved counts the prefix cycles injection-point
	// forking never simulated, summed over runs.
	MetricWarmstartSaved = "campaign_warmstart_cycles_saved"
	// MetricSnapshotBytes is a gauge holding the estimated memory
	// footprint of the golden snapshots, one per distinct injection cycle.
	MetricSnapshotBytes = "campaign_snapshot_bytes"
	// MetricSimulatedCycles counts cycles faulty runs actually stepped;
	// MetricSynthesizedCycles counts cycles
	// whose outcome was synthesized instead (reconvergence tails,
	// frozen drains and horizons). Together they keep warm-start and
	// synthesis savings out of the honest throughput accounting.
	MetricSimulatedCycles   = "campaign_cycles_simulated_total"
	MetricSynthesizedCycles = "campaign_cycles_synthesized_total"
	// MetricFaultsPerSec is the live throughput gauge, updated under
	// the progress mutex after every completed run. It is wall-clock
	// honest (completed runs over elapsed seconds) no matter how many
	// cycles the fast paths skipped; MetricSimCyclesPerSec is the
	// companion gauge of really-simulated cycles per second, immune to
	// synthesized and skipped-prefix inflation. The seconds both divide
	// by run from the moment the first golden group is ready and leave
	// out the stretches the whole pool stood waiting for a later one
	// (rateClock): the rate says what the runs cost, so that an ETA
	// drawn from it does not sag at every injection cycle.
	MetricFaultsPerSec    = "campaign_faults_per_sec"
	MetricSimCyclesPerSec = "campaign_sim_cycles_per_sec"
	// MetricWorkers is the resolved worker-pool size.
	MetricWorkers = "campaign_workers"
	// MetricRunSeconds is the per-run wall-time histogram (seconds,
	// exponential buckets 1 ms … ~32 s).
	MetricRunSeconds = "campaign_run_seconds"
	// MetricDetectionLatency is the histogram of NoCAlert detection
	// latencies in cycles (detection cycle minus injection cycle;
	// exponential buckets 1 … 32768 cycles). Only detected runs feed
	// it, so its _count is the campaign's detection count.
	MetricDetectionLatency = "campaign_detection_latency_cycles"
	// MetricFired counts runs whose fault corrupted a live signal.
	MetricFired = "campaign_faults_fired_total"
	// Verdict-class counters: every run increments exactly one of
	// ok/malicious; Unbounded additionally marks failed drains.
	MetricVerdictOK        = "campaign_verdict_ok_total"
	MetricVerdictMalicious = "campaign_verdict_malicious_total"
	MetricVerdictUnbounded = "campaign_verdict_unbounded_total"
	// MetricFrontierRuns counts runs driven by the divergence-frontier
	// delta engine; MetricFrontierJoins counts lazy materializations
	// (nodes joining a frontier) across all of them.
	MetricFrontierRuns  = "campaign_frontier_runs_total"
	MetricFrontierJoins = "campaign_frontier_joins_total"
	// MetricFrontierRouters is the histogram of per-run peak frontier
	// sizes (routers) over the whole run — the measured cone of
	// influence. Only frontier-driven runs feed it.
	MetricFrontierRouters = "campaign_frontier_routers"
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
	// warm-up publishes while earlier cycles' runs execute (seconds, the
	// MetricRunSeconds buckets). All zero when the artefact came whole
	// from the cache; its sum is about what the runs waited for the
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

// mechMetricNames spells the mechanism in the per-mechanism outcome
// counters: campaign_outcome_<mechanism>_<outcome>_total.
var mechMetricNames = [...]string{"nocalert", "cautious", "forever"}

// OutcomeMetricName returns the counter name tracking outcome o of
// mechanism m, e.g. campaign_outcome_nocalert_tp_total.
func OutcomeMetricName(m Mechanism, o trace.Outcome) string {
	return "campaign_outcome_" + mechMetricNames[int(m)] + "_" + strings.ToLower(o.String()) + "_total"
}

// runSecondsBounds is the MetricRunSeconds bucket layout.
var runSecondsBounds = metrics.ExponentialBounds(0.001, 2, 16)

// reconvCyclesBounds is the MetricReconvergenceCycles bucket layout.
var reconvCyclesBounds = metrics.ExponentialBounds(1, 2, 16)

// detectLatencyBounds is the MetricDetectionLatency bucket layout.
var detectLatencyBounds = metrics.ExponentialBounds(1, 2, 16)

// frontierRoutersBounds is the MetricFrontierRouters bucket layout:
// powers of two from a single router up to a 32×32 mesh.
var frontierRoutersBounds = metrics.ExponentialBounds(1, 2, 11)

// instruments holds the pre-resolved campaign instruments so the
// per-run path does one pointer hop per update instead of a registry
// lookup.
type instruments struct {
	runs          *metrics.Counter
	fastHits      *metrics.Counter
	fastMisses    *metrics.Counter
	reconvHits    *metrics.Counter
	fullRuns      *metrics.Counter
	fired         *metrics.Counter
	verdictOK     *metrics.Counter
	verdictMal    *metrics.Counter
	verdictUnb    *metrics.Counter
	outcomes      [len(mechMetricNames)][trace.FalseNegative + 1]*metrics.Counter
	runSeconds    *metrics.Histogram
	reconvCycles  *metrics.Histogram
	detectLatency *metrics.Histogram
	faultsPS      *metrics.Gauge
	forkedRuns    *metrics.Counter
	warmSaved     *metrics.Counter
	simCycles     *metrics.Counter
	synthCycles   *metrics.Counter
	simCyclesPS   *metrics.Gauge
	frontierRuns  *metrics.Counter
	frontierJoins *metrics.Counter
	frontierSize  *metrics.Histogram
	groupWait     *metrics.Histogram
}

func newInstruments(reg *metrics.Registry, workers, totalRuns int) *instruments {
	in := &instruments{
		runs:          reg.Counter(MetricRuns),
		fastHits:      reg.Counter(MetricFastPathHits),
		fastMisses:    reg.Counter(MetricFastPathMisses),
		reconvHits:    reg.Counter(MetricReconvergenceHits),
		fullRuns:      reg.Counter(MetricFullSimRuns),
		fired:         reg.Counter(MetricFired),
		verdictOK:     reg.Counter(MetricVerdictOK),
		verdictMal:    reg.Counter(MetricVerdictMalicious),
		verdictUnb:    reg.Counter(MetricVerdictUnbounded),
		runSeconds:    reg.Histogram(MetricRunSeconds, runSecondsBounds),
		reconvCycles:  reg.Histogram(MetricReconvergenceCycles, reconvCyclesBounds),
		detectLatency: reg.Histogram(MetricDetectionLatency, detectLatencyBounds),
		faultsPS:      reg.Gauge(MetricFaultsPerSec),
		forkedRuns:    reg.Counter(MetricForkedRuns),
		warmSaved:     reg.Counter(MetricWarmstartSaved),
		simCycles:     reg.Counter(MetricSimulatedCycles),
		synthCycles:   reg.Counter(MetricSynthesizedCycles),
		simCyclesPS:   reg.Gauge(MetricSimCyclesPerSec),
		frontierRuns:  reg.Counter(MetricFrontierRuns),
		frontierJoins: reg.Counter(MetricFrontierJoins),
		frontierSize:  reg.Histogram(MetricFrontierRouters, frontierRoutersBounds),
		groupWait:     reg.Histogram(MetricGoldenGroupWait, runSecondsBounds),
	}
	for m := range in.outcomes {
		for o := trace.TrueNegative; o <= trace.FalseNegative; o++ {
			in.outcomes[m][o] = reg.Counter(OutcomeMetricName(Mechanism(m), o))
		}
	}
	reg.Gauge(MetricWorkers).Set(float64(workers))
	reg.Gauge(MetricRunsExpected).Set(float64(totalRuns))
	return in
}

// observe records one completed run. Called under the progress mutex,
// so done/simCycles/elapsed form consistent throughput samples; the
// instruments themselves are atomic and need no lock. st is the run's
// honest cycle accounting and simCycles the campaign's running total of
// really-simulated cycles — synthesized and skipped-prefix cycles feed
// their own counters instead of inflating the live gauges.
func (in *instruments) observe(rec *trace.RunRecord, groupWait time.Duration, exit ExitPath, convCycles int64, st *runStats, done int, simCycles int64, elapsed time.Duration) {
	in.runs.Inc()
	in.groupWait.Observe(groupWait.Seconds())
	if st.forked {
		in.forkedRuns.Inc()
	}
	in.warmSaved.Add(st.warmSaved)
	in.simCycles.Add(st.simulated)
	in.synthCycles.Add(st.synthesized)
	if st.frontier {
		in.frontierRuns.Inc()
		in.frontierJoins.Add(st.frontierJoins)
		in.frontierSize.Observe(float64(st.frontierPeak))
	}
	switch exit {
	case ExitFastPath:
		in.fastHits.Inc()
	case ExitReconverged:
		in.fastMisses.Inc()
		in.reconvHits.Inc()
		in.reconvCycles.Observe(float64(convCycles))
	default:
		in.fastMisses.Inc()
		in.fullRuns.Inc()
	}
	if rec.Fired {
		in.fired.Inc()
	}
	if rec.Malicious {
		in.verdictMal.Inc()
	} else {
		in.verdictOK.Inc()
	}
	if rec.Unbounded {
		in.verdictUnb.Inc()
	}
	for m := range in.outcomes {
		o, _ := Mechanism(m).of(rec)
		in.outcomes[m][o].Inc()
	}
	if rec.Outcome.Detected() && rec.Latency >= 0 {
		in.detectLatency.Observe(float64(rec.Latency))
	}
	in.runSeconds.Observe(rec.WallSeconds)
	if s := elapsed.Seconds(); s > 0 {
		in.faultsPS.Set(float64(done) / s)
		in.simCyclesPS.Set(float64(simCycles) / s)
	}
}

// rateClock is what a Run's live rates divide by: the time since its
// worker pool started less its stalls, the stretches in which a worker
// stood blocked on a golden group the warm-up had not published yet and
// none was executing a run. The wait for the first group is the first
// stall, so the clock in effect starts when that group is ready; with
// the stalls left in, a rate would sag at every later injection cycle
// while nothing is wrong, and every ETA derived from it with it. The
// caller serializes the calls.
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

// active is the time the rates divide by.
func (c *rateClock) active() time.Duration {
	d := time.Since(c.start) - c.stalled
	if c.stalling() {
		d -= time.Since(c.stallAt)
	}
	return d
}
