// Package campaign orchestrates the paper's fault-injection methodology
// (§5.2–5.4): one fault-free golden run plus one forked, fault-injected
// run per fault, each classified against the Golden Reference into
// true/false positives/negatives for NoCAlert, NoCAlert-Cautious and
// ForEVeR. The aggregated report regenerates Figures 6–9 and
// Observations 1–5.
//
// Forking works by warming a single network to the injection cycle and
// re-forking it per fault, so a cycle-32K campaign pays the warmup once.
// That fault-free half is an artefact (Golden, goldencache.go) published
// one injection cycle at a time, immutable from then on, which a
// GoldenCache shares between the shards and jobs of one process; runs of
// an early injection cycle execute while the warm-up steps towards the
// later ones. Runs execute on a small worker pool; each worker reuses one clone
// arena (sim.Network.CloneInto) across all its runs, and runs whose
// fault provably never fired short-circuit to a precomputed fault-free
// template instead of simulating the remaining drain and ForEVeR
// horizon.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/rng"
	"nocalert/internal/sim"
)

// Outcome classifies one mechanism's behaviour on one injected fault,
// following the paper's four categories (§5.4).
type Outcome int

const (
	// TrueNegative: nothing detected, fault benign.
	TrueNegative Outcome = iota
	// TruePositive: detected, fault caused a network-correctness
	// violation.
	TruePositive
	// FalsePositive: detected, fault benign.
	FalsePositive
	// FalseNegative: not detected, fault caused a violation — the
	// outcome NoCAlert's design goal drives to zero.
	FalseNegative
)

// String returns the outcome's abbreviation.
func (o Outcome) String() string {
	switch o {
	case TrueNegative:
		return "TN"
	case TruePositive:
		return "TP"
	case FalsePositive:
		return "FP"
	case FalseNegative:
		return "FN"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ExitPath identifies how a run reached its result. The three paths are
// result-equivalent — reports are byte-identical whichever path resolves
// a run — but differ enormously in cost, so campaigns count them.
type ExitPath int

const (
	// ExitFull: the run simulated PostInjectRun, drain and ForEVeR
	// horizon end to end.
	ExitFull ExitPath = iota
	// ExitFastPath: every fault of the group provably expired without
	// firing; the result was copied from the fault-free template.
	ExitFastPath
	// ExitReconverged: the fault fired but its perturbation washed out —
	// the divergence frontier emptied mid window with a clean ejection
	// history and golden's counters, so the tail was synthesized instead
	// of simulated.
	ExitReconverged
)

// String returns a short name for the exit path.
func (e ExitPath) String() string {
	switch e {
	case ExitFull:
		return "full"
	case ExitFastPath:
		return "fastpath"
	case ExitReconverged:
		return "reconverged"
	}
	return fmt.Sprintf("ExitPath(%d)", int(e))
}

func classify(detected, malicious bool) Outcome {
	switch {
	case detected && malicious:
		return TruePositive
	case detected && !malicious:
		return FalsePositive
	case !detected && malicious:
		return FalseNegative
	default:
		return TrueNegative
	}
}

// Options configures a campaign.
type Options struct {
	// Sim is the network and workload under test.
	Sim sim.Config
	// InjectCycle is the cycle SampleFaults-style universes inject at
	// (the paper uses 0, 32K and 64K). Each fault's own Cycle field is
	// authoritative: groups may inject at different cycles within one
	// campaign, and the golden run snapshots/forks at every distinct
	// injection cycle it encounters.
	InjectCycle int64
	// PostInjectRun is how many cycles injection continues after the
	// fault, giving the perturbation live traffic to interact with.
	PostInjectRun int64
	// DrainDeadline bounds the drain phase; a network that cannot
	// empty by then violates bounded delivery.
	DrainDeadline int64
	// Forever tunes the ForEVeR baseline.
	Forever forever.Options
	// Faults is the list of faults to inject, one run each.
	Faults []fault.Fault
	// FaultGroups, when non-empty, replaces Faults: each group injects
	// together in one run — the multi-fault extension the paper leaves
	// as future work. All faults of a group must inject at InjectCycle.
	FaultGroups [][]fault.Fault
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// CheckersDisabled optionally ablates NoCAlert checkers.
	CheckersDisabled []core.CheckerID
	// FullSim runs every fault on the full-simulation reference path
	// (runSlow): fork, step the whole mesh through the window, the drain
	// and the ForEVeR horizon, compare. No run takes the fast path, the
	// reconvergence exit, the divergence frontier or the frozen-state
	// fast-forward, and the golden warm-up records nothing those read.
	// Reports are byte-identical either way (test-enforced); the switch
	// is the oracle the shortcuts are held to and the baseline their win
	// is measured against.
	FullSim bool
	// GoldenCache, when non-nil, shares the golden half of the campaign
	// (warm-up mainline, per-injection-cycle snapshots and golden
	// continuations) with every other Run handed the same cache: a Run
	// whose artefact is already there, or being built, does not build it
	// again. Nil — the default — builds it for this Run alone. Reports
	// are byte-identical either way (test-enforced).
	GoldenCache *GoldenCache
	// Progress, when non-nil, is invoked after each completed run with
	// the number of finished runs and the total. Calls are serialized;
	// the callback must not call back into the campaign.
	Progress func(done, total int)
	// Metrics, when non-nil, receives campaign telemetry: run counts,
	// per-run wall-time histograms, fast-path hit/miss counters,
	// outcome and verdict-class counters, and a live faults/sec gauge
	// (see the Metric* name constants). Nil — the default — keeps the
	// hot path free of any telemetry cost.
	Metrics *metrics.Registry
	// OnResult, when non-nil, is invoked after each completed run with
	// the run's index in FaultGroups, its result, its wall time and the
	// exit path that resolved it. Calls are serialized under the same
	// mutex as Progress (and precede the Progress call for the same
	// run); the result pointer is only valid during the call if the
	// caller mutates the report afterwards — copy, don't retain. The
	// faultcampaign CLI streams its NDJSON run trace from here.
	OnResult func(index int, res *RunResult, wall time.Duration, exit ExitPath)
	// Context, when non-nil, cancels the campaign cooperatively: no new
	// runs start after it is done and Run returns its error. Runs
	// already in flight complete first.
	Context context.Context
	// Tracer, when non-nil, emits hierarchical spans — campaign →
	// run → phase (warm-start, fault-armed, drain, horizon, and the
	// reconverged/fast-forwarded tails) — carrying the cycle-accurate
	// accounting runStats tracks. Run spans honor the tracer's sampling
	// rate; the campaign span and golden-warmup phase never sample out.
	// Tracing never touches RunResult or the report: serialized reports
	// are byte-identical with tracing on or off (test-enforced).
	Tracer *obs.Tracer
	// TraceParent optionally parents the campaign span (the daemon's
	// job span, or a shard span), threading one correlation ID from a
	// nocalertd job down to every run it executes.
	TraceParent *obs.Span
	// FlightRecorder, when non-nil, receives cycle-stamped events from
	// the engine's trust boundaries (fork verifications, frontier
	// reconvergences, detections, fast-forward freezes) and
	// auto-dumps its ring on anomalies: a fork-verify mismatch or a
	// missed-detection (FN) verdict.
	FlightRecorder *obs.FlightRecorder
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.PostInjectRun <= 0 {
		out.PostInjectRun = 500
	}
	if out.DrainDeadline <= 0 {
		out.DrainDeadline = 10000
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Context == nil {
		out.Context = context.Background()
	}
	if len(out.FaultGroups) == 0 {
		if len(out.Faults) == 0 {
			return out, errors.New("campaign: no faults to inject")
		}
		out.FaultGroups = make([][]fault.Fault, len(out.Faults))
		for i, f := range out.Faults {
			out.FaultGroups[i] = []fault.Fault{f}
		}
	}
	for _, g := range out.FaultGroups {
		if len(g) == 0 {
			return out, errors.New("campaign: empty fault group")
		}
		for _, f := range g {
			if f.Cycle < 0 {
				return out, fmt.Errorf("campaign: fault %v injects at negative cycle", &f)
			}
			if f.Cycle != g[0].Cycle {
				return out, fmt.Errorf("campaign: fault group mixes injection cycles %d and %d", g[0].Cycle, f.Cycle)
			}
		}
	}
	return out, nil
}

// RunResult is the outcome of one fault-injected run.
type RunResult struct {
	// Fault is the injected fault (the first of the group in
	// multi-fault runs; see Group).
	Fault fault.Fault
	// Group holds every fault of a multi-fault run.
	Group []fault.Fault
	// Fired reports whether the fault actually corrupted a live signal
	// (a fault on an idle module may never touch anything).
	Fired bool
	// Verdict is the golden-reference judgment.
	Verdict golden.Verdict
	// Drained reports whether the faulty network emptied in time.
	Drained bool

	// NoCAlert results.
	Detected    bool
	DetectCycle int64 // absolute cycle of first assertion
	Latency     int64 // DetectCycle - injection cycle
	Outcome     Outcome

	// NoCAlert-Cautious results (low-risk checkers 1 and 3 deferred).
	CautiousDetected bool
	CautiousLatency  int64
	CautiousOutcome  Outcome

	// ForEVeR results.
	ForeverDetected bool
	ForeverLatency  int64
	ForeverOutcome  Outcome

	// Checker attribution.
	CheckersFired      []core.CheckerID
	FirstCycleCheckers []core.CheckerID
	SimultaneityHist   []int64
}

// Report is the aggregated campaign output.
type Report struct {
	Opts Options
	// GoldenEjections is the number of flits the golden run delivered
	// after the injection cycle.
	GoldenEjections int
	// GoldenForeverFalsePositive reports whether ForEVeR flagged the
	// fault-free golden continuation (an epoch-tuning artifact).
	GoldenForeverFalsePositive bool
	// Results holds one entry per injected fault, in input order.
	Results []RunResult
	// FastPathHits counts runs resolved by the early-exit fast path
	// (fault provably never fired; result synthesized from the
	// fault-free template instead of simulating drain and horizon).
	FastPathHits int
	// ReconvergedHits counts runs whose fault fired but whose state
	// reconverged with the golden run's before the post-injection window
	// ended; their tails were synthesized from the golden record instead
	// of simulated.
	ReconvergedHits int
	// ForkedRuns counts runs that warm-started from a golden snapshot
	// above cycle 0, skipping their [0, injection cycle) prefix entirely.
	ForkedRuns int
	// SnapshotCount and SnapshotBytes describe the golden snapshots, one
	// per distinct injection cycle: how many full-state snapshots the
	// golden run recorded and their estimated memory footprint.
	SnapshotCount int
	SnapshotBytes int64
	// SimulatedCycles counts cycles faulty runs actually stepped — the
	// honest denominator for throughput.
	// WarmstartCyclesSaved counts prefix cycles skipped by forking;
	// SynthesizedCycles counts cycles whose outcome was synthesized
	// (reconvergence tails, frozen drains and horizons) rather than
	// stepped. None of these alter the serialized report.
	SimulatedCycles      int64
	WarmstartCyclesSaved int64
	SynthesizedCycles    int64
	// FrontierRuns counts runs driven by the divergence-frontier delta
	// engine; TimelineBytes is the estimated memory footprint of the
	// golden-side per-run records: the signal transcripts (window and
	// drain) backing the frontier plus the counter timelines backing its
	// reconvergence exit. Neither alters the serialized report.
	FrontierRuns  int
	TimelineBytes int64
}

// worker holds the per-worker reusable state: a CloneInto target
// network (with its flit arena), a golden.Log for indexing a full-mesh
// run's ejections, and for frontier-driven runs the frontier itself and
// the scratch its delta verdict is computed in. Reusing these turns the
// per-fault allocation storm into a once-per-worker cost.
type worker struct {
	net   *sim.Network
	flog  *golden.Log
	fr    *sim.Frontier
	delta golden.Delta
	seeds []int
}

// beforeRun is a seam for tests: when set, every worker of every Run calls
// it on its reusable state before each of its runs (a run must not depend
// on what the worker's network held before it).
var beforeRun func(*worker)

// groupCtx is the per-injection-cycle golden context shared by every
// run injecting at that cycle: the snapshot to fork from — the complete
// golden network state at the injection cycle, every register, buffer,
// latch, NI queue, RNG stream and cloneable monitor, never written after
// capture — the golden fingerprint there (the template's fork is verified
// against it), the golden reference log and ForEVeR monitor of the
// fault-free continuation, the fault-free template, and the reconvergence
// context.
type groupCtx struct {
	cycle  int64
	snap   *sim.Network
	forkFP uint64

	goldenLog       *golden.Log
	gfv             *forever.Monitor
	goldenFvFP      bool
	goldenEjections int

	tmpl RunResult
	rc   *reconvergence

	// rec drives divergence-frontier delta stepping: the golden
	// continuation's per-link signal transcript from the injection cycle
	// through the post-injection window and the drain until the network
	// settled, which is as far as any faulty run can need it. Nil exactly
	// when rc is (FullSim, or a golden the shortcuts cannot rest on);
	// shared read-only across workers.
	rec *sim.Recording
}

// Run executes the campaign. The golden warm-up and the faulty runs
// overlap: runs are fed in injection-cycle order and each waits only for
// its own cycle's golden group, so the first verdicts, OnResult and
// Progress calls come while the warm-up (this Run's, or that of a
// concurrent Run sharing the GoldenCache) is still stepping towards the
// later injection cycles. Run returns once every goroutine it started
// has exited.
func Run(opts Options) (_ *Report, err error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}

	cycles, key := o.goldenInputs()

	// Campaign span: the root of this process's span hierarchy unless a
	// job or shard span parents it. All span plumbing is nil-safe, so
	// the tracing-off path below is the old code plus dead branches.
	camp := o.Tracer.Start(o.TraceParent, "campaign", "campaign")

	// The golden half: built by this Run's own pipeline, or taken from
	// the cache when an earlier or concurrent campaign of the same key
	// built or is building it. Every Run emits the golden-warmup span
	// either way; its cache attribute says which.
	warm := camp.Child("phase", "golden-warmup")
	warm.SetAttr("injection_cycles", len(cycles))
	// runCtx ends with the Run: it stops the pipeline and wakes workers
	// waiting for a group when a group build fails, too.
	runCtx, cancelRun := context.WithCancel(o.Context)
	hold := &goldenHold{ctx: runCtx, o: &o, cycles: cycles, key: key, warm: warm, warmOpen: true}
	defer func() {
		cancelRun()
		hold.release()
		// The artefact's totals are final when its last group is out, not
		// before: the gauges and the cache's outcome are taken here.
		if g := hold.g; o.Metrics != nil && g != nil && g.complete() {
			o.Metrics.Gauge(MetricSnapshotBytes).Set(float64(g.snapshotBytes))
			o.Metrics.Gauge(MetricTimelineBytes).Set(float64(g.timelineBytes))
			observeGoldenCache(o.Metrics, hold.how, o.GoldenCache.size())
		}
		if err != nil {
			camp.SetAttr("error", err.Error())
		}
		camp.End()
	}()
	if err := hold.attach(); err != nil {
		return nil, err
	}

	report := &Report{Opts: o, Results: make([]RunResult, len(o.FaultGroups))}

	var (
		wg           sync.WaitGroup
		progMu       sync.Mutex
		done         int
		fastHits     int
		reconvHits   int
		forkedRuns   int
		frontierRuns int
		simCycles    int64
		warmSaved    int64
		synthSaved   int64
		groupErr     error
	)
	total := len(o.FaultGroups)
	var inst *instruments
	if o.Metrics != nil {
		inst = newInstruments(o.Metrics, o.Workers, total)
	}
	// Per-run wall clocks are only read when someone is listening, and
	// the rate clock only moves under Metrics: the metrics-off loop takes
	// no time but the group waits'.
	needTiming := inst != nil || o.OnResult != nil
	// clock is what the live rates divide by. Guarded by progMu, like
	// everything else the workers share.
	clock := rateClock{start: time.Now()}
	jobs := make(chan int)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wk worker
			for i := range jobs {
				progMu.Lock()
				failed := groupErr != nil
				if inst != nil && !failed {
					clock.move(+1, 0)
				}
				progMu.Unlock()
				if failed {
					continue
				}
				cycle := o.FaultGroups[i][0].Cycle
				gc, waited, err := hold.group(cycle)
				if err != nil {
					progMu.Lock()
					if groupErr == nil {
						groupErr = err
						cancelRun()
					}
					progMu.Unlock()
					continue
				}
				if inst != nil {
					progMu.Lock()
					clock.move(-1, +1)
					progMu.Unlock()
				}
				var runStart time.Time
				if needTiming {
					runStart = time.Now()
				}
				var ro *runObs
				if o.Tracer != nil || o.FlightRecorder != nil {
					ro = &runObs{fr: o.FlightRecorder, idx: i}
					if o.Tracer.Sampled(i) {
						ro.span = camp.Child("run", fmt.Sprintf("run[%d]", i))
					}
				}
				if beforeRun != nil {
					beforeRun(&wk)
				}
				res, exit, convCycles, st := runOne(&wk, gc, o, o.FaultGroups[i], ro)
				var wall time.Duration
				if needTiming {
					wall = time.Since(runStart)
				}
				ro.finish(&res, exit, convCycles, &st, cycle)
				report.Results[i] = res
				progMu.Lock()
				done++
				switch exit {
				case ExitFastPath:
					fastHits++
				case ExitReconverged:
					reconvHits++
				}
				if st.forked {
					forkedRuns++
				}
				if st.frontier {
					frontierRuns++
				}
				simCycles += st.simulated
				warmSaved += st.warmSaved
				synthSaved += st.synthesized
				if inst != nil {
					clock.move(0, -1)
					inst.observe(&report.Results[i], wall, waited, exit, convCycles, &st, done, simCycles, clock.active())
				}
				if o.OnResult != nil {
					o.OnResult(i, &report.Results[i], wall, exit)
				}
				if o.Progress != nil {
					o.Progress(done, total)
				}
				progMu.Unlock()
			}
		}()
	}
	// Feed runs in injection-cycle order (stable within a cycle): that is
	// the order the golden groups are published in, and consecutive runs
	// share a snapshot and a transcript that stay warm in cache. Results
	// remain input-indexed regardless of feed order.
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return o.FaultGroups[order[a]][0].Cycle < o.FaultGroups[order[b]][0].Cycle
	})
	var ctxErr error
feed:
	for _, i := range order {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			ctxErr = o.Context.Err() // nil when it was a failed group build that stopped the feed
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if ctxErr != nil {
		return nil, ctxErr
	}
	if groupErr != nil {
		return nil, groupErr
	}
	// Every run has had its group, the last injection cycle's among
	// them, so the artefact is whole and its totals follow at once.
	gold := hold.g
	<-gold.done
	first := gold.groups[cycles[0]].gc
	report.GoldenEjections = first.goldenEjections
	report.GoldenForeverFalsePositive = first.goldenFvFP
	report.SnapshotCount = len(gold.groups)
	report.SnapshotBytes = gold.snapshotBytes
	report.TimelineBytes = gold.timelineBytes
	report.FastPathHits = fastHits
	report.ReconvergedHits = reconvHits
	report.ForkedRuns = forkedRuns
	report.FrontierRuns = frontierRuns
	report.SimulatedCycles = simCycles
	report.WarmstartCyclesSaved = warmSaved
	report.SynthesizedCycles = synthSaved
	camp.SetAttr("runs", total)
	camp.SetAttr("fastpath_hits", fastHits)
	camp.SetAttr("reconverged_hits", reconvHits)
	camp.SetAttr("forked_runs", forkedRuns)
	camp.SetAttr("frontier_runs", frontierRuns)
	camp.SetAttr("cycles_simulated", simCycles)
	camp.SetAttr("cycles_synthesized", synthSaved)
	camp.SetAttr("warmstart_cycles_saved", warmSaved)
	return report, nil
}

// buildGroupCtx runs the golden continuation of fork point fp — the
// post-injection window, the drain, and the ForEVeR horizon — and derives
// everything runs at that injection cycle share. fp.cont is the builder's
// to step to its end; tw is the scratch worker the template's fork runs
// in. gs, the injection cycle's group span, gets one child phase span per
// part of the work (window, settle-horizon, template). Under FullSim
// every run takes runSlow, which reads the snapshot, the golden log and
// the golden monitor only: the continuation records nothing, carries no
// engine, and no template is assembled.
func buildGroupCtx(tw *worker, o Options, fp forkPoint, gs *obs.Span) (*groupCtx, error) {
	c, cont := fp.cycle, fp.cont
	gc := &groupCtx{cycle: c, snap: fp.snap, forkFP: fp.forkFP}
	var eng *core.Engine
	var tl *golden.Timeline
	win := gs.Child("phase", "window")
	win.SetAttr("inject_cycle", c)
	if !o.FullSim {
		// The continuation is also the fault-free template run (see
		// goldenTemplate), so it carries the NoCAlert engine a run would.
		eng = core.NewEngine(cont.RouterConfig(), core.Options{Disabled: o.CheckersDisabled})
		cont.AttachMonitor(eng)
		// It records what the divergence frontier replays clean nodes from
		// (the per-link signal transcript), the counters its reconvergence
		// exit compares against (the timeline) and ForEVeR's per-node
		// record, which the monitors of frontier runs follow instead of
		// being shown the whole mesh.
		tl = golden.NewTimeline(int(o.PostInjectRun))
		cont.StartRecording(int(o.PostInjectRun))
		findForever(cont).StartHistory(c)
		ejStart := len(cont.Ejections())
		for t := int64(0); t < o.PostInjectRun; t++ {
			cont.Step()
			tl.ObserveCounters(cont, cont.Ejections()[ejStart:])
		}
	} else {
		cont.Run(o.PostInjectRun)
	}
	win.End()
	sh := gs.Child("phase", "settle-horizon")
	sh.SetAttr("inject_cycle", c)
	if !cont.Drain(o.DrainDeadline) {
		sh.End()
		return nil, fmt.Errorf("campaign: fault-free golden run failed to drain by cycle %d (inflight=%d)",
			cont.Cycle(), cont.InFlight())
	}
	// The transcript ran on through the drain and runs on until golden
	// stops changing (the last flit's credits are still on their way home:
	// a couple of cycles): from there it covers whatever a faulty run still
	// needs (sim/record.go). Golden steps these cycles anyway to the
	// ForEVeR horizon, which then bounds them: its monitor must see no
	// cycle a run without the transcript would not show it.
	horizon := foreverHorizon(cont.Cycle(), o.Forever)
	if !o.FullSim {
		gc.rec = cont.SettleRecording(horizon)
	}
	for cont.Cycle() < horizon {
		cont.Step()
	}
	sh.SetAttr("golden_cycle", cont.Cycle())
	sh.End()
	gc.goldenLog = golden.FromEjections(cont.Ejections(), c)
	gc.goldenEjections = gc.goldenLog.Total()
	gc.gfv = findForever(cont)
	goldenFd := gc.gfv.FirstDetectionAfter(c)
	gc.goldenFvFP = goldenFd >= 0

	if o.FullSim {
		return gc, nil
	}
	tp := gs.Child("phase", "template")
	tp.SetAttr("inject_cycle", c)
	tmpl, err := goldenTemplate(tw, gc, o, eng, goldenFd, tp)
	tp.End()
	if err != nil {
		return nil, err
	}
	gc.tmpl = tmpl

	// The shortcuts rest on a clean golden continuation: no NoCAlert
	// assertion anywhere in the fault-free template (so freezing the
	// engine at the reconvergence cycle loses nothing), a benign
	// golden-vs-golden verdict, a transcript that settled, and a golden
	// ForEVeR monitor whose detection list stayed under its cap (so the
	// recorded tail is complete) and that ended with every counter at zero
	// and no notification in flight (the state a node the fault never
	// reaches is in once golden's record of it ends). All of
	// these hold for any sanely configured campaign; if one does not, the
	// group's runs take the reference path (runSlow) and the transcript is
	// dropped.
	sound := !tmpl.Detected && tmpl.Drained && tmpl.Verdict.OK() && gc.rec != nil &&
		len(gc.gfv.Detections()) < forever.DetectionCap && gc.gfv.Settled()
	if sound {
		gc.rc = &reconvergence{tl: tl, gfv: gc.gfv, verdict: tmpl.Verdict}
	} else {
		gc.rec = nil
	}
	return gc, nil
}

// goldenTemplate returns the fault-free template for the fast path: the
// result of one full run through the per-fault code path with an empty
// fault plane. A run whose faults provably never fired is bit-identical
// to that run, so its result can be copied instead of simulated (slices
// are shared read-only across all fast-path results). That run is in
// turn bit-identical to the golden continuation, stepped from the same
// state with eng attached, so the template is assembled from the
// continuation — its engine, its monitor's first flag goldenFd, its own
// log judged against itself — and not simulated a second time. What is
// still done once per injection cycle, before any faulty run trusts it,
// is the fork: clone the snapshot and verify the clone against the
// mainline's fingerprint at the fork point.
//
// A continuation whose engine asserted, or whose ForEVeR monitor filled
// its detection list, does not carry a run's result exactly: it is
// stepped cycle by cycle where a run fast-forwards and, settling its
// transcript with ForEVeR off, past where a run stops; a full detection
// list may have dropped the run's first flag. Such a golden is unsound
// for every shortcut built on the template anyway, and its template is
// the honest second run (the span's "resimulated" attribute says so).
func goldenTemplate(tw *worker, gc *groupCtx, o Options, eng *core.Engine, goldenFd int64, span *obs.Span) (RunResult, error) {
	// The template carries the flight recorder (its fork verification
	// guards every fast-path result at this cycle) but no run span: index
	// -1 is never sampled.
	var tro *runObs
	if o.FlightRecorder != nil {
		tro = &runObs{fr: o.FlightRecorder, idx: -1}
	}
	var st runStats
	resimulate := eng.Detected() || len(gc.gfv.Detections()) >= forever.DetectionCap
	span.SetAttr("resimulated", resimulate)
	if resimulate {
		return runSlow(tw, gc, o, nil, &st, tro), nil
	}
	if n, _, _ := tw.forkRun(gc, o, nil, false, &st, tro); n.Fingerprint() != gc.forkFP {
		tro.anomaly("fork fingerprint mismatch", "fork_verify", gc.cycle, "a clone of the snapshot differs from the mainline")
		return RunResult{}, fmt.Errorf("campaign: a fork at cycle %d diverged from the golden state", gc.cycle)
	}
	tro.event("fork_verify", gc.cycle, "ok", nil)
	verdict := golden.Compare(gc.goldenLog, gc.goldenLog, true)
	return assembleResult(eng, nil, nil, gc.cycle, verdict, true, goldenFd), nil
}

// foreverHorizon returns the cycle up to which a run must continue so
// that ForEVeR's epoch mechanism has a chance to flag anomalies that
// materialized before the drain completed: the next epoch boundary
// plus one full epoch.
func foreverHorizon(cycle int64, o forever.Options) int64 {
	epoch := o.Epoch
	if epoch <= 0 {
		epoch = forever.DefaultOptions().Epoch
	}
	next := (cycle/epoch + 1) * epoch
	return next + epoch
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func findForever(n *sim.Network) *forever.Monitor {
	for _, m := range n.Monitors() {
		if fv, ok := m.(*forever.Monitor); ok {
			return fv
		}
	}
	return nil
}

// reconvergence bundles the golden-side state the shortcuts consult: the
// per-cycle counter timeline, the golden ForEVeR monitor (for
// synthesizing the detection tail) and the benign golden-vs-golden
// verdict reconverged runs inherit. A group has one exactly when the
// shortcuts may rest on its golden (buildGroupCtx).
type reconvergence struct {
	tl      *golden.Timeline
	gfv     *forever.Monitor
	verdict golden.Verdict
}

// runOne executes one fault group's run on one of the two run paths: the
// divergence frontier with its exits (runFrontier) when the group's golden
// carries the shortcuts, the full-simulation reference (runSlow) under
// FullSim or when it does not. convCycles is the reconvergence latency
// (cycles after injection); zero for the other exit paths.
func runOne(w *worker, gc *groupCtx, o Options, group []fault.Fault, ro *runObs) (res RunResult, exit ExitPath, convCycles int64, st runStats) {
	if gc.rc == nil {
		res = runSlow(w, gc, o, group, &st, ro)
		return res, ExitFull, 0, st
	}
	res, exit, convCycles = runFrontier(w, gc, o, group, &st, ro)
	return res, exit, convCycles, st
}

// forkRun is the warm start both run paths share: the network at gc's
// injection cycle under plane, taken from the golden snapshot there, with a
// fresh NoCAlert engine attached and the detections its ForEVeR monitor fv
// inherited from golden cleared. lazy is for a run the divergence frontier
// steps: the worker's network takes the fork point's
// network-level state only (sim.Network.CloneLazyInto), and the frontier
// fetches from the snapshot the nodes the run's cone comes to hold
// (st.nodesCloned, counted when the run is over); the rest of the worker's
// network keeps whatever earlier runs left there, and nothing reads it.
// Otherwise the whole mesh is copied (CloneInto), for a network that steps
// itself.
func (w *worker) forkRun(gc *groupCtx, o Options, plane *fault.Plane, lazy bool, st *runStats, ro *runObs) (n *sim.Network, eng *core.Engine, fv *forever.Monitor) {
	ws := ro.phase("warm-start")
	if lazy {
		n = gc.snap.CloneLazyInto(w.net, plane)
	} else {
		n = gc.snap.CloneInto(w.net, plane)
		st.nodesCloned = n.Mesh().Nodes()
	}
	w.net = n
	st.warmSaved, st.forked = gc.cycle, gc.cycle > 0
	ws.SetAttr("fork_cycle", gc.cycle)
	ws.End()
	eng = core.NewEngine(n.RouterConfig(), core.Options{Disabled: o.CheckersDisabled})
	n.AttachMonitor(eng)
	fv = findForever(n)
	fv.ClearDetections()
	return n, eng, fv
}

// runFrontier drives one forked faulty run with the divergence-frontier
// delta engine: only the fault's cone of influence is stepped, every
// other node is replayed from the golden signal transcript (see
// sim.Frontier). It has three exits. When every fault of the group has
// provably expired without firing, the run is bit-identical to the
// fault-free continuation from the same forked state, so its result is the
// fault-free template (ExitFastPath). When the plane is quiescent (fired,
// but can never fire again) and the frontier has shrunk to empty with a
// clean ejection history and golden's counters, the faulty state is
// golden's, so the rest of the window, the drain and the horizon are
// synthesized (ExitReconverged): a few flag and counter compares a cycle.
// (The frontier looks at a member's state on a backoff of its own; on the
// window's last cycle, where emptiness decides between this exit and the
// next, it is made to look at them all.) A run still divergent at window
// end finishes (drain, horizon, verdict) in finishRun, stepped by the
// frontier: the transcript covers golden's drain and everything after it.
// That holds for a run whose fault is still armed at window end too
// (permanent, intermittent): its members never retire, so it costs its
// cone until finishRun's probe finds the cone has stopped changing
// (ffProbe: a permanent fault is stationary) and fast-forwards.
func runFrontier(w *worker, gc *groupCtx, o Options, group []fault.Fault, st *runStats, ro *runObs) (res RunResult, exit ExitPath, convCycles int64) {
	plane := fault.NewPlane(group...)
	n, eng, fv := w.forkRun(gc, o, plane, true, st, ro)
	w.seeds = w.seeds[:0]
	for _, ft := range group {
		w.seeds = append(w.seeds, ft.Site.Router)
	}
	fv.Follow(gc.gfv)
	if w.fr == nil {
		w.fr = new(sim.Frontier)
	}
	fr := w.fr
	fr.Reset(n, gc.rec, w.seeds)
	st.frontier = true
	defer func() {
		st.frontierPeak, st.frontierJoins, st.frontierProbes = fr.Peak(), fr.Joins(), fr.RetireProbes()
		st.nodesCloned += fr.Copied() // on top of the fork's
	}()
	ro.setFrontier(fr)
	rc := gc.rc
	fa := ro.phase("fault-armed")
	for t := int64(0); t < o.PostInjectRun; t++ {
		fr.Step()
		if n.FaultsInert() {
			res = gc.tmpl
			res.Fault = group[0]
			res.Group = group
			st.simulated = n.Cycle() - gc.cycle
			st.horizon = n.Cycle()
			fa.End()
			return res, ExitFastPath, 0
		}
		if t == o.PostInjectRun-1 {
			fr.RetireAll()
		}
		if !n.FaultsQuiescent() || !fr.Empty() || !fr.Clean() {
			continue
		}
		pt, ok := rc.tl.At(n.Cycle())
		if !ok || !countersMatch(n, &pt) {
			continue
		}
		ro.event("frontier_empty", n.Cycle(), "reconverged", nil)
		st.simulated = n.Cycle() - gc.cycle
		st.synthesized += gc.cycle + o.PostInjectRun - n.Cycle()
		st.horizon = gc.cycle + o.PostInjectRun
		fa.End()
		rt := ro.phase("reconverged-tail")
		rt.SetAttr("reconverged_cycle", n.Cycle())
		rt.SetAttr("cycles_synthesized", gc.cycle+o.PostInjectRun-n.Cycle())
		rt.End()
		return synthesizeReconverged(n, eng, fv, rc, plane, gc.cycle, group),
			ExitReconverged, n.Cycle() - gc.cycle
	}
	fa.End()
	res = finishRun(fr, n, eng, fv, plane, gc, o, group, w, st, ro)
	st.simulated = n.Cycle() - gc.cycle
	return res, ExitFull, 0
}

// countersMatch holds an emptied frontier's flit accounting to golden's
// at the same cycle boundary, the last check before the reconvergence
// exit: a few integer compares. (How many flits the run has ejected
// since the fork is the ejection counter's to say: a frontier run's log
// holds only what differs from golden's.)
func countersMatch(n *sim.Network, pt *golden.TimelinePoint) bool {
	return n.FlitsInjected() == pt.FlitsInjected &&
		n.FlitsEjected() == pt.FlitsEjected &&
		n.NextPacketID() == pt.NextPkt
}

// synthesizeReconverged builds the run's result at the reconvergence
// cycle without simulating the rest of the window, the drain or the
// ForEVeR horizon. Soundness: an empty frontier with a clean ejection
// history and golden's counters proves the faulty run's past delivered
// exactly golden's flits and its future will replay golden's cycles bit
// for bit. Hence the
// verdict is the benign golden-vs-golden verdict; the drain succeeds
// exactly as golden's did; the NoCAlert engine — whose checkers are
// purely combinational per cycle — can assert nothing in the golden
// replay (the fault-free template run detected nothing, a precondition
// checked in buildGroupCtx), so its aggregates are already final;
// and ForEVeR's counter state, a function of the injection and ejection
// histories alone, equals the golden monitor's, so its future flags are
// the golden monitor's recorded tail.
func synthesizeReconverged(n *sim.Network, eng *core.Engine, fv *forever.Monitor, rc *reconvergence, plane *fault.Plane, injectCycle int64, group []fault.Fault) RunResult {
	// Flags the faulty monitor raised during the divergent window come
	// first; past the reconvergence cycle the faulty run would flag exactly
	// when the golden monitor did, so the recorded golden tail completes the
	// picture.
	fd := fv.FirstDetectionAfter(injectCycle)
	if fd < 0 {
		fd = rc.gfv.FirstDetectionAfter(n.Cycle())
	}
	return assembleResult(eng, plane, group, injectCycle, rc.verdict, true, fd)
}

// assembleResult builds the result of a run that is over — stepped to its
// end, or known from here on without stepping: whether the plane fired,
// what the NoCAlert engine accumulated, and the three mechanisms'
// classifications against the golden-reference verdict. fd is ForEVeR's
// first flag at or after the injection cycle, -1 for none.
func assembleResult(eng *core.Engine, plane *fault.Plane, group []fault.Fault, injectCycle int64, verdict golden.Verdict, drained bool, fd int64) RunResult {
	malicious := !verdict.OK()
	fired := false
	for i := range group {
		if plane.FiredAt(i) >= 0 {
			fired = true
			break
		}
	}
	res := RunResult{
		Group:   group,
		Fired:   fired,
		Verdict: verdict,
		Drained: drained,

		Detected:    eng.Detected(),
		DetectCycle: eng.FirstDetection(),

		CheckersFired:      eng.FiredCheckers(),
		FirstCycleCheckers: eng.FirstCycleCheckers(),
		SimultaneityHist:   eng.SimultaneityHistogram(),
	}
	if len(group) > 0 {
		res.Fault = group[0]
	}
	res.Outcome = classify(res.Detected, malicious)
	if res.Detected {
		res.Latency = res.DetectCycle - injectCycle
	} else {
		res.Latency = -1
	}

	res.CautiousDetected = eng.FirstHighRiskDetection() >= 0
	res.CautiousOutcome = classify(res.CautiousDetected, malicious)
	if res.CautiousDetected {
		res.CautiousLatency = eng.FirstHighRiskDetection() - injectCycle
	} else {
		res.CautiousLatency = -1
	}

	res.ForeverDetected = fd >= 0
	if res.ForeverDetected {
		res.ForeverLatency = fd - injectCycle
	} else {
		res.ForeverLatency = -1
	}
	res.ForeverOutcome = classify(res.ForeverDetected, malicious)
	return res
}

// runSlow is the full-simulation reference run path: fork, step the
// whole mesh through the window, then drain and horizon and compare in
// finishRun, with no early exit and no fast-forward. A nil group runs
// with an empty fault plane (a golden template that must be simulated
// again, goldenTemplate).
func runSlow(w *worker, gc *groupCtx, o Options, group []fault.Fault, st *runStats, ro *runObs) RunResult {
	plane := fault.NewPlane(group...)
	n, eng, fv := w.forkRun(gc, o, plane, false, st, ro)
	fa := ro.phase("fault-armed")
	n.Run(o.PostInjectRun)
	fa.End()
	res := finishRun(nil, n, eng, fv, plane, gc, o, group, w, st, ro)
	st.simulated = n.Cycle() - gc.cycle
	return res
}

// stepper is what finishRun drives a run's drain and horizon with: the
// forked network itself, or the divergence frontier standing for it.
type stepper interface {
	Step()
	Quiet() bool
}

// finishRun drains the network, runs out the ForEVeR horizon, and
// classifies the run against the golden reference. fr, when not nil, is
// the frontier that steps n and holds its ejection log as a difference
// from golden's; n steps itself otherwise, and is read either way for
// everything both agree on (cycle, counters, fault plane). The horizon
// run-out gives ForEVeR's epoch check a chance to flag anomalies after the
// drain (on an undrained network the extra cycles can also surface
// NoCAlert assertions on stuck traffic).
//
// On the frontier, both phases probe for a frozen fixed point (see
// ffProbe) and synthesize the remainder exactly instead of
// stepping it: a frozen non-quiet network can never drain, so the drain
// verdict is the deadline miss it was headed for; a frozen network
// steps identically through the rest of the horizon, so all that is
// left to compute is ForEVeR's epoch-boundary arithmetic (projected
// from the frozen counters without mutating the monitor) and the
// NoCAlert accumulators (the steady assertion pattern, replayed via
// ffProbe.extend — a deadlocked router that keeps asserting still
// freezes, it just fast-forwards its assertions along with its state).
func finishRun(fr *sim.Frontier, n *sim.Network, eng *core.Engine, fv *forever.Monitor, plane *fault.Plane, gc *groupCtx, o Options, group []fault.Fault, w *worker, st *runStats, ro *runObs) RunResult {
	var s stepper = n
	if fr != nil {
		s = fr
	}
	var drained, frozen bool
	var probe ffProbe
	projectUntil := int64(-1)
	n.StopInjection()
	dr := ro.phase("drain")
	drainEnd := n.Cycle() + o.DrainDeadline
	for n.Cycle() < drainEnd {
		if s.Quiet() {
			drained = true
			break
		}
		if fr != nil && probe.frozen(fr, n, eng, fv) {
			frozen = true
			break
		}
		s.Step()
	}
	if !drained && !frozen {
		drained = s.Quiet()
	}
	if frozen {
		ro.event("ff_freeze", n.Cycle(), "frozen in drain", nil)
	}
	dr.SetAttr("drained", drained)
	dr.SetAttr("frozen", frozen)
	dr.End()
	logical := n.Cycle()
	if frozen {
		// A frozen, non-quiet network would have stepped unchanged
		// to the deadline and missed it.
		st.synthesized += drainEnd - n.Cycle()
		logical = drainEnd
	}
	hz := ro.phase("horizon")
	horizon := foreverHorizon(logical, o.Forever)
	for !frozen && n.Cycle() < horizon {
		if fr != nil && probe.frozen(fr, n, eng, fv) {
			frozen = true
			ro.event("ff_freeze", n.Cycle(), "frozen in horizon", nil)
			break
		}
		s.Step()
	}
	if frozen {
		st.synthesized += horizon - max64(n.Cycle(), logical)
		projectUntil = horizon
	}
	hz.SetAttr("horizon_cycle", horizon)
	hz.SetAttr("frozen", frozen)
	hz.End()
	if frozen {
		// The frozen state re-emits its assertion pattern on every
		// synthesized cycle; fold all of them into the engine so the
		// accumulators match a full simulation to the horizon.
		probe.extend(eng, projectUntil-n.Cycle())
		sp := ro.phase("fast-forward")
		sp.SetAttr("frozen_cycle", n.Cycle())
		if n.FaultsQuiescent() {
			sp.SetAttr("plane", "quiescent")
		} else {
			sp.SetAttr("plane", "stationary")
		}
		sp.SetAttr("project_until", projectUntil)
		sp.SetAttr("cycles_synthesized", st.synthesized)
		sp.End()
	}
	// The logical end cycle this run's accounting covers: with a frozen
	// fast-forward the synthesized remainder runs to projectUntil,
	// otherwise the network really stepped to its final cycle. Callers
	// set st.simulated from the same n.Cycle(), closing the invariant
	// warmSaved + simulated + synthesized == horizon.
	if projectUntil >= 0 {
		st.horizon = projectUntil
	} else {
		st.horizon = n.Cycle()
	}

	vs := ro.phase("verdict")
	defer vs.End()
	var verdict golden.Verdict
	if fr != nil {
		// A frontier run exists only over a golden log that is OK()
		// against itself (buildGroupCtx), which is what the delta verdict
		// rests on.
		verdict = w.delta.Compare(gc.goldenLog, fr.Replaced(), n.Ejections(), drained)
	} else {
		w.flog = golden.FromEjectionsInto(w.flog, n.Ejections(), gc.cycle)
		verdict = golden.Compare(gc.goldenLog, w.flog, drained)
	}
	fd := fv.FirstDetectionAfter(gc.cycle)
	if fd < 0 && projectUntil >= 0 {
		// The frozen state replays identically through [n.Cycle(),
		// projectUntil): only the epoch-boundary checks remain.
		fd = fv.ProjectFrozenDetection(n.Cycle(), projectUntil)
	}
	return assembleResult(eng, plane, group, gc.cycle, verdict, drained, fd)
}

// SampleFaults draws n distinct single-bit transient faults injecting
// at cycle, uniformly over every fault location of the mesh (or all of
// them when n is 0 or exceeds the population). The draw is
// deterministic in seed. Sparse draws (2n < population) sample global
// bit indices directly instead of materializing one Fault per location,
// so sampling a few hundred faults from a large mesh stays O(sites+n)
// rather than O(population).
func SampleFaults(p fault.Params, n int, seed uint64, cycle int64) []fault.Fault {
	sites := p.EnumerateSites()
	prefix := make([]int, len(sites)+1)
	for i, s := range sites {
		prefix[i+1] = prefix[i] + s.Width
	}
	total := prefix[len(sites)]
	if n <= 0 || n >= total {
		all := make([]fault.Fault, 0, total)
		for _, s := range sites {
			all = append(all, fault.BitFaults(s, cycle, fault.Transient)...)
		}
		return all
	}
	g := rng.New(seed, 0xfa17)
	idx := make([]int, 0, n)
	if 2*n >= total {
		// Dense draw: a permutation prefix is cheaper than rejection
		// sampling when we want a large fraction of the population.
		idx = append(idx, g.Perm(total)[:n]...)
	} else {
		seen := make(map[int]struct{}, n)
		for len(idx) < n {
			v := g.Intn(total)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			idx = append(idx, v)
		}
	}
	out := make([]fault.Fault, len(idx))
	for i, v := range idx {
		si := sort.SearchInts(prefix, v+1) - 1
		s := sites[si]
		out[i] = fault.Fault{Site: s, Bit: v - prefix[si], Cycle: cycle, Type: fault.Transient}
	}
	return out
}
