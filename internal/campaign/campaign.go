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
// GoldenCache shares, once finished, between the shards and jobs of one
// process; runs of an early injection cycle execute while the warm-up
// steps towards the later ones. Runs execute on a small worker pool; each
// worker reuses one clone arena (sim.Network.CloneInto) across all its
// runs, and runs whose fault provably never fired, or fired and washed
// out, have their remaining window, drain and ForEVeR horizon synthesized
// from the golden record instead of simulated.
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
	"nocalert/internal/trace"
)

// ExitPath identifies how a run reached its result. The two paths are
// result-equivalent — reports are byte-identical whichever path resolves
// a run — but differ enormously in cost, so campaigns count them.
type ExitPath int

const (
	// ExitFull: the run simulated PostInjectRun, drain and ForEVeR
	// horizon end to end.
	ExitFull ExitPath = iota
	// ExitReconverged: the faulty state is golden's again — the
	// divergence frontier emptied mid window with a clean ejection
	// history and golden's counters, so the tail was synthesized instead
	// of simulated. A run whose faults never fired never diverged, and
	// ends here too: it is the record's fast path (RunRecord.FastPath).
	ExitReconverged
)

// String returns a short name for the exit path.
func (e ExitPath) String() string {
	switch e {
	case ExitFull:
		return "full"
	case ExitReconverged:
		return "reconverged"
	}
	return fmt.Sprintf("ExitPath(%d)", int(e))
}

// Exec holds how a campaign executes: the knobs that never change a run
// record or the report. Options embeds it, and RunShard's callers hand
// theirs down whole.
type Exec struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// FullSim runs every fault on the full-simulation reference path
	// (runSlow): fork, step the whole mesh through the window, the drain
	// and the ForEVeR horizon, compare. No run takes the reconvergence
	// exit (so none the fast path), the divergence frontier or the
	// frozen-state fast-forward, and the golden warm-up records nothing
	// those read.
	// Reports are byte-identical either way (test-enforced); the switch
	// is the oracle the shortcuts are held to and the baseline their win
	// is measured against.
	FullSim bool
	// GoldenCache, when non-nil, shares the golden half of the campaign
	// (warm-up mainline, per-injection-cycle snapshots and golden
	// continuations) with every later Run handed the same cache: a Run
	// whose artefact is already there does not build it again. Nil — the
	// default — builds it for this Run alone. Reports are byte-identical
	// either way (test-enforced).
	GoldenCache *GoldenCache
	// Metrics, when non-nil, receives the campaign telemetry something
	// reads live: the run-path and cycle counters, the golden footprint
	// and cache families and the group-wait histogram (see the Metric*
	// name constants). Nil — the default — keeps the hot path free of
	// any telemetry cost.
	Metrics *metrics.Registry
	// Context, when non-nil, cancels the campaign cooperatively: no new
	// runs start after it is done and Run returns its error. Runs
	// already in flight complete first.
	Context context.Context
	// Tracer, when non-nil, emits hierarchical spans — campaign →
	// run → phase (warm-start, fault-armed, drain, horizon, and the
	// reconverged/fast-forwarded tails) — carrying the cycle-accurate
	// accounting runStats tracks. Run spans honor the tracer's sampling
	// rate; the campaign span and golden-warmup phase never sample out.
	// Tracing never touches a run's record or the report: serialized reports
	// are byte-identical with tracing on or off (test-enforced).
	Tracer *obs.Tracer
	// TraceParent optionally parents the campaign span (the daemon's
	// job span, or a shard span), threading one correlation ID from a
	// nocalertd job down to every run it executes.
	TraceParent *obs.Span
}

// Options configures a campaign.
type Options struct {
	// Sim is the network and workload under test.
	Sim sim.Config
	// InjectCycle is the cycle SampleFaults-style universes inject at
	// (`make paper` and EXPERIMENTS.md use 0, 16 000 and 32 000). Each
	// fault's own Cycle field is authoritative: groups may inject at
	// different cycles within one campaign, and the golden run
	// snapshots/forks at every distinct injection cycle it encounters.
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
	// as future work. The faults of a group must share one injection
	// cycle; groups may differ.
	FaultGroups [][]fault.Fault
	// CheckersDisabled optionally ablates NoCAlert checkers.
	CheckersDisabled []core.CheckerID
	Exec
	// Progress, when non-nil, is invoked after each completed run with
	// the number of finished runs and the total. Calls are serialized;
	// the callback must not call back into the campaign.
	Progress func(done, total int)
	// OnResult, when non-nil, is invoked after each completed run with
	// the run's record (Index its position in FaultGroups, WallSeconds
	// its wall time), the run's RunCounts and this Run's live
	// faults/sec: the runs completed so far over rateClock's time, a
	// clock that only runs while OnResult is set. Calls are serialized
	// under the same mutex as Progress (and precede the Progress call for
	// the same run); the record is the report's own entry: copy it, don't
	// retain or mutate it. RunShard appends each run's checkpoint record
	// and sums its stats from here.
	OnResult func(rec *trace.RunRecord, c RunCounts, faultsPerSec float64)
}

// DefaultPostInjectRun and DefaultDrainDeadline are what a campaign runs
// with when its Options leave PostInjectRun or DrainDeadline zero; a Spec
// is normalized to them (Spec.Normalize).
const (
	DefaultPostInjectRun = 500
	DefaultDrainDeadline = 10000
)

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.PostInjectRun <= 0 {
		out.PostInjectRun = DefaultPostInjectRun
	}
	if out.DrainDeadline <= 0 {
		out.DrainDeadline = DefaultDrainDeadline
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

// Report is the aggregated campaign output.
type Report struct {
	Opts Options
	// Results holds one record per fault group, in input order; every
	// figure is a fold over them.
	Results []trace.RunRecord
	// RunCounts sums the runs' exit paths and cycle accounting. It does
	// not alter the serialized report; a report folded from records
	// (ReportFromRecords) fills in FastPathHits alone.
	RunCounts
	// SnapshotBytes is the estimated memory footprint of the golden
	// artefact's snapshots, one per distinct injection cycle;
	// TimelineBytes that of the golden-side per-run records: the signal
	// transcripts (window and drain) backing the frontier and the golden
	// ForEVeR monitors' per-node records. Neither alters the serialized
	// report.
	SnapshotBytes int64
	TimelineBytes int64
}

// RunCounts says how runs ended and what they cost, for one run
// (countRun) or summed over many (Add). The report, the shard stats, the
// metric counters, the campaign span and the daemon's job views and
// events all read it; the JSON names are the daemon's.
type RunCounts struct {
	// FastPathHits counts the fast-path runs: the faults never fired, so
	// the run reconverged without diverging (RunRecord.FastPath).
	// ReconvergedHits counts runs whose fault fired but whose state
	// reconverged with the golden run's before the post-injection window
	// ended; their tails were synthesized from the golden record instead
	// of simulated. FullSimRuns counts the rest, which simulated window,
	// drain and horizon (ExitFull). The three sum to the runs.
	FastPathHits    int `json:"fast_path_hits,omitempty"`
	ReconvergedHits int `json:"reconverged_hits,omitempty"`
	FullSimRuns     int `json:"full_sim_runs,omitempty"`
	// ForkedRuns counts runs that warm-started from a golden snapshot
	// above cycle 0, skipping their [0, injection cycle) prefix entirely;
	// FrontierRuns counts runs driven by the divergence-frontier delta
	// engine.
	ForkedRuns   int `json:"forked_runs,omitempty"`
	FrontierRuns int `json:"frontier_runs,omitempty"`
	// SimulatedCycles counts cycles faulty runs actually stepped — the
	// honest denominator for throughput. SynthesizedCycles counts cycles
	// whose outcome was synthesized (reconvergence tails, frozen drains
	// and horizons) rather than stepped; WarmstartCyclesSaved counts
	// prefix cycles skipped by forking.
	SimulatedCycles      int64 `json:"simulated_cycles,omitempty"`
	SynthesizedCycles    int64 `json:"synthesized_cycles,omitempty"`
	WarmstartCyclesSaved int64 `json:"warmstart_cycles_saved,omitempty"`
}

// countRun is one run's RunCounts: its exit path, from the record's fast
// path and exit, and what its runStats say it forked, stepped and
// synthesized.
func countRun(rec *trace.RunRecord, exit ExitPath, st *runStats) RunCounts {
	c := RunCounts{SimulatedCycles: st.simulated, SynthesizedCycles: st.synthesized, WarmstartCyclesSaved: st.warmSaved}
	switch {
	case rec.FastPath:
		c.FastPathHits = 1
	case exit == ExitReconverged:
		c.ReconvergedHits = 1
	default:
		c.FullSimRuns = 1
	}
	if st.forked {
		c.ForkedRuns = 1
	}
	if st.frontier {
		c.FrontierRuns = 1
	}
	return c
}

// Add sums d into c.
func (c *RunCounts) Add(d RunCounts) {
	c.FastPathHits += d.FastPathHits
	c.ReconvergedHits += d.ReconvergedHits
	c.FullSimRuns += d.FullSimRuns
	c.ForkedRuns += d.ForkedRuns
	c.FrontierRuns += d.FrontierRuns
	c.SimulatedCycles += d.SimulatedCycles
	c.SynthesizedCycles += d.SynthesizedCycles
	c.WarmstartCyclesSaved += d.WarmstartCyclesSaved
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
// it on its reusable state and the run's golden group before each of its
// runs (a run must not depend on what the worker's network held before
// it).
var beforeRun func(*worker, *groupCtx)

// groupCtx is the per-injection-cycle golden context shared by every
// run injecting at that cycle: the snapshot to fork from — the complete
// golden network state at the injection cycle, every register, buffer,
// latch, NI queue, RNG stream and cloneable monitor, never written after
// capture — the golden fingerprint there (the builder's fork is verified
// against it), the golden reference log and ForEVeR monitor of the
// fault-free continuation, and the transcript the divergence frontier
// replays.
type groupCtx struct {
	cycle  int64
	snap   *sim.Network
	forkFP uint64

	goldenLog *golden.Log
	gfv       *forever.Monitor

	// rec drives divergence-frontier delta stepping: the golden
	// continuation's per-link signal transcript from the injection cycle
	// through the post-injection window and the drain until the network
	// settled, which is as far as any faulty run can need it. Nil under
	// FullSim and for a golden the shortcuts cannot rest on (the group's
	// runs then take the reference path); shared read-only across workers.
	rec *sim.Recording
}

// Run executes the campaign. The golden warm-up and the faulty runs
// overlap: runs are fed in injection-cycle order and each waits only for
// its own cycle's golden group, so the first verdicts, OnResult and
// Progress calls come while this Run's warm-up is still stepping towards
// the later injection cycles. Run returns once every goroutine it
// started has exited.
func Run(opts Options) (_ *Report, err error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}

	// The golden half: taken from the cache when an earlier campaign of
	// the same key built it, or else built by this Run's own pipeline.
	cycles, key := o.goldenInputs()
	gold := o.GoldenCache.get(key)
	hit := gold != nil
	if hit && gold.key != key {
		return nil, fmt.Errorf("campaign: golden artefact was built for key %.12s, this campaign needs %.12s", gold.key, key)
	}

	// Campaign span: the root of this process's span hierarchy unless a
	// job or shard span parents it. All span plumbing is nil-safe, so
	// the tracing-off path below is the old code plus dead branches.
	camp := o.Tracer.Start(o.TraceParent, "campaign", "campaign")

	// Every Run emits the golden-warmup span, hit or miss; its cache
	// attribute says which.
	warm := camp.Child("phase", "golden-warmup")
	warm.SetAttr("injection_cycles", len(cycles))
	// runCtx ends with the Run: it stops the pipeline and wakes workers
	// waiting for a group when a group build fails, too.
	runCtx, cancelRun := context.WithCancel(o.Context)
	if hit {
		warm.SetAttr("cache", cacheHit)
		gold.stamp(warm)
		warm.End()
	} else {
		warm.SetAttr("cache", cacheMiss)
		gold = startGolden(runCtx, &o, cycles, key, o.GoldenCache, warm)
	}
	defer func() {
		cancelRun()
		// The pipeline this Run started, if it started one, has exited once
		// done is closed, and the artefact's totals are final: the gauges
		// and the cache's outcome are taken here.
		<-gold.done
		if o.Metrics != nil && gold.err == nil {
			o.Metrics.Gauge(MetricSnapshotBytes).Set(float64(gold.snapshotBytes))
			o.Metrics.Gauge(MetricTimelineBytes).Set(float64(gold.timelineBytes))
			observeGoldenCache(o.Metrics, hit, o.GoldenCache.size())
		}
		if err != nil {
			camp.SetAttr("error", err.Error())
		}
		camp.End()
	}()

	report := &Report{Opts: o, Results: make([]trace.RunRecord, len(o.FaultGroups))}

	var (
		wg       sync.WaitGroup
		progMu   sync.Mutex
		done     int
		groupErr error
	)
	total := len(o.FaultGroups)
	var inst *instruments
	if o.Metrics != nil {
		inst = newInstruments(o.Metrics)
	}
	// Per-run wall clocks and the rate clock are only read when someone
	// is listening to the records: a loop without OnResult takes no time
	// but the group waits'.
	timed := o.OnResult != nil
	// clock is what the live rate divides by. Guarded by progMu, like
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
				if timed && !failed {
					clock.move(+1, 0)
				}
				progMu.Unlock()
				if failed {
					continue
				}
				cycle := o.FaultGroups[i][0].Cycle
				gc, waited, err := gold.group(runCtx, cycle)
				if err != nil {
					progMu.Lock()
					if groupErr == nil {
						groupErr = err
						cancelRun()
					}
					progMu.Unlock()
					continue
				}
				if timed {
					progMu.Lock()
					clock.move(-1, +1)
					progMu.Unlock()
				}
				var runStart time.Time
				if timed {
					runStart = time.Now()
				}
				var ro *runObs
				if o.Tracer.Sampled(i) {
					ro = &runObs{span: camp.Child("run", fmt.Sprintf("run[%d]", i)), idx: i}
				}
				if beforeRun != nil {
					beforeRun(&wk, gc)
				}
				rec, exit, convCycles, st := runOne(&wk, gc, o, o.FaultGroups[i], ro)
				if timed {
					rec.WallSeconds = time.Since(runStart).Seconds()
				}
				// The fast path is derived here and nowhere else: a run
				// that reconverged without its faults ever firing. A fired
				// run that reconverged records fast_path=false like a fully
				// simulated one, and so does an unfired permanent fault,
				// which never goes quiescent and ends ExitFull.
				rec.Index, rec.FastPath = i, exit == ExitReconverged && !rec.Fired
				ro.finish(&rec, exit, convCycles, &st)
				c := countRun(&rec, exit, &st)
				report.Results[i] = rec
				progMu.Lock()
				done++
				report.RunCounts.Add(c)
				if inst != nil {
					inst.observe(waited, &c)
				}
				if timed {
					clock.move(0, -1)
					var perSec float64
					if s := clock.active().Seconds(); s > 0 {
						perSec = float64(done) / s
					}
					o.OnResult(&report.Results[i], c, perSec)
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
	<-gold.done
	report.SnapshotBytes = gold.snapshotBytes
	report.TimelineBytes = gold.timelineBytes
	c := &report.RunCounts
	camp.SetAttr("runs", total)
	camp.SetAttr("fastpath_hits", c.FastPathHits)
	camp.SetAttr("reconverged_hits", c.ReconvergedHits)
	camp.SetAttr("forked_runs", c.ForkedRuns)
	camp.SetAttr("frontier_runs", c.FrontierRuns)
	camp.SetAttr("cycles_simulated", c.SimulatedCycles)
	camp.SetAttr("cycles_synthesized", c.SynthesizedCycles)
	camp.SetAttr("warmstart_cycles_saved", c.WarmstartCyclesSaved)
	return report, nil
}

// buildGroupCtx records the golden continuation of fork point fp — the
// post-injection window, the drain, and the ForEVeR horizon — on the
// builder's fork of the snapshot (recordWindow) and derives everything
// runs at that injection cycle share; counts gets what the fork stepped.
// tw is the builder's worker, whose network every fork reuses. gs, the
// injection cycle's group span, gets one child phase span per part of the
// work (window, settle-horizon; a split window has two window spans).
// Under FullSim every run takes runSlow, which reads the snapshot, the
// golden log and the golden monitor only: the continuation records
// nothing and carries no engine.
func buildGroupCtx(tw *worker, o Options, fp forkPoint, gs *obs.Span, counts *stepCounts) (*groupCtx, error) {
	c := fp.cycle
	gc := &groupCtx{cycle: c, snap: fp.snap, forkFP: fp.forkFP}
	run, err := recordWindow(tw, gc, o, fp.split, gs, counts)
	if err != nil {
		return nil, err
	}
	gc.goldenLog = golden.FromEjections(run.ejections, c)
	gc.gfv = run.fv
	if o.FullSim {
		return gc, nil
	}

	// The shortcuts rest on a clean golden continuation: no NoCAlert
	// assertion anywhere in it (so an engine frozen at the reconvergence
	// cycle loses nothing), a benign golden-vs-golden verdict,
	// a transcript that settled, and a golden ForEVeR monitor whose
	// detection list stayed under its cap (so the recorded tail is complete)
	// and that ended with every counter at zero and no notification in
	// flight (the state a node the fault never reaches is in once golden's
	// record of it ends). All of these hold for any sanely configured
	// campaign; if one does not, the group's runs take the reference path
	// (runSlow) and the transcript is dropped.
	verdict := golden.Compare(gc.goldenLog, gc.goldenLog, true)
	if run.silent && verdict.OK() && run.rec != nil &&
		len(gc.gfv.Detections()) < forever.DetectionCap && gc.gfv.Settled() {
		gc.rec = run.rec
	}
	return gc, nil
}

// goldenRun is what the golden continuation of an injection cycle leaves
// the group: its ejections from the injection cycle on, its ForEVeR
// monitor holding the record kept since then, the transcript (nil under
// FullSim or when it did not settle), and whether every NoCAlert engine
// it carried stayed silent.
type goldenRun struct {
	ejections []sim.Ejection
	fv        *forever.Monitor
	rec       *sim.Recording
	silent    bool
}

// phaseSpan opens the phase span name of injection cycle c under the
// group span gs.
func phaseSpan(gs *obs.Span, name string, c int64) *obs.Span {
	s := gs.Child("phase", name)
	s.SetAttr("inject_cycle", c)
	return s
}

// windowSpan opens a window span over cycles [from, to) of injection
// cycle c's post-injection window: the whole of it, or one segment.
func windowSpan(gs *obs.Span, c, from, to int64) *obs.Span {
	s := phaseSpan(gs, "window", c)
	s.SetAttr("from_cycle", from)
	s.SetAttr("to_cycle", to)
	return s
}

// startWindow attaches to n, at the boundary it stands at, what a recorded
// window carries and returns the NoCAlert engine, which a run's shortcuts
// need silent (buildGroupCtx). It records what the divergence frontier replays
// clean nodes from (the per-link signal transcript, sized for cycles more,
// whose running event counts are golden's flit counters too) and
// ForEVeR's per-node record, which the monitors of frontier runs follow
// instead of being shown the whole mesh.
func startWindow(n *sim.Network, o Options, cycles int64) *core.Engine {
	eng := core.NewEngine(n.RouterConfig(), core.Options{Disabled: o.CheckersDisabled})
	n.AttachMonitor(eng)
	n.StartRecording(int(cycles))
	findForever(n).StartHistory(n.Cycle())
	return eng
}

// recordWindow records the golden continuation of gc's injection cycle c
// on the builder's verified fork of the snapshot (verifyFork, into tw's
// reused network): the whole window, then the
// drain, the settling and the horizon (settleHorizon). A split window (sw,
// the last injection cycle's) is recorded there only up to the split
// cycle, while the mainline steps quietly to the split cycle and records
// the rest itself, through the horizon (recordTail). Its own segment
// done, the builder takes the mainline's and checks the seam: the two
// networks' fingerprints and ForEVeR states at the split cycle must
// agree, or the campaign fails as it does on a fork that diverged. The
// run it returns joins the two segments — transcript, ejections, ForEVeR
// record — into what the single chain records; silent only if both
// engines were. counts gets what the fork stepped.
func recordWindow(tw *worker, gc *groupCtx, o Options, sw *splitWindow, gs *obs.Span, counts *stepCounts) (run goldenRun, err error) {
	c, to := gc.cycle, gc.cycle+o.PostInjectRun
	if sw != nil {
		sw.span <- gs
		to = sw.at
	}
	win := windowSpan(gs, c, c, to)
	n, err := tw.verifyFork(gc)
	if err != nil {
		win.End()
		return run, err
	}
	var eng *core.Engine
	if !o.FullSim {
		eng = startWindow(n, o, o.PostInjectRun) // sized for the whole window: a split one's tail is appended
	}
	n.Run(to - c)
	win.End()
	if sw == nil {
		run.rec, err = settleHorizon(n, o, c, gs, (*sim.Network).SettleRecording)
		counts.add(n)
		run.ejections, run.fv = n.Ejections(), findForever(n)
		run.silent = eng == nil || !eng.Detected()
		return run, err
	}
	seg := n.DetachSegment()
	counts.add(n)
	fv := findForever(n)
	seamFP, seamFV := n.Fingerprint(), fv.StateFold()

	tail := <-sw.tail
	if tail.err != nil {
		return run, tail.err
	}
	if tail.seamFP != seamFP || tail.seamFV != seamFV {
		return run, fmt.Errorf("campaign: the two segments of the golden window of injection cycle %d disagree at split cycle %d", c, sw.at)
	}
	if tail.rec != nil {
		run.rec = seg.Join(tail.rec)
	}
	run.ejections = append(n.Ejections(), tail.net.Ejections()...)
	run.fv = findForever(tail.net)
	run.fv.SpliceHistory(fv)
	run.silent = !eng.Detected() && !tail.eng.Detected()
	return run, nil
}

// settleHorizon drains the continuation n of injection cycle c and steps
// it on to the ForEVeR horizon, under a settle-horizon span. The
// transcript, which ran on through the drain, runs on until golden stops
// changing (settle: SettleRecording, or SettleSegment for a split window's
// second segment; the last flit's credits are still on their way home: a
// couple of cycles): from there it covers whatever a faulty run still
// needs (sim/record.go). Golden steps these cycles anyway to the horizon,
// which then bounds them: its monitor must see no cycle a run without the
// transcript would not show it.
func settleHorizon(n *sim.Network, o Options, c int64, gs *obs.Span, settle func(*sim.Network, int64) *sim.Recording) (*sim.Recording, error) {
	sh := phaseSpan(gs, "settle-horizon", c)
	defer sh.End()
	if !n.Drain(o.DrainDeadline) {
		return nil, fmt.Errorf("campaign: fault-free golden run failed to drain by cycle %d (inflight=%d)",
			n.Cycle(), n.InFlight())
	}
	horizon := foreverHorizon(n.Cycle(), o.Forever)
	var rec *sim.Recording
	if !o.FullSim {
		rec = settle(n, horizon)
	}
	for n.Cycle() < horizon {
		n.Step()
	}
	sh.SetAttr("golden_cycle", n.Cycle())
	return rec, nil
}

// verifyFork is what every run at gc's injection cycle rests on, done once
// per injection cycle, on the network the golden window is then recorded
// on, before any run forks: clone the snapshot into w's network the way a
// run does, and verify the clone against the mainline's fingerprint at
// the fork point. A mismatch fails the campaign. It returns the clone,
// fault-free.
func (w *worker) verifyFork(gc *groupCtx) (*sim.Network, error) {
	w.net = gc.snap.CloneInto(w.net, nil)
	if w.net.Fingerprint() != gc.forkFP {
		return nil, fmt.Errorf("campaign: a fork at cycle %d diverged from the golden state", gc.cycle)
	}
	return w.net, nil
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

// runOne executes one fault group's run on one of the two run paths: the
// divergence frontier with its exits (runFrontier) when the group's golden
// carries the shortcuts, the full-simulation reference (runSlow) under
// FullSim or when it does not. The record it returns carries the run's
// fault and verdict; the caller stamps where and how it ran (Index,
// FastPath, WallSeconds). convCycles is the reconvergence latency (cycles
// after injection); zero for ExitFull.
func runOne(w *worker, gc *groupCtx, o Options, group []fault.Fault, ro *runObs) (rec trace.RunRecord, exit ExitPath, convCycles int64, st runStats) {
	if gc.rec == nil {
		rec = runSlow(w, gc, o, group, &st, ro)
		return rec, ExitFull, 0, st
	}
	rec, exit, convCycles = runFrontier(w, gc, o, group, &st, ro)
	return rec, exit, convCycles, st
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
// sim.Frontier). It has two exits. When the plane is quiescent (it can
// never fire again, whether or not it did) and the frontier has shrunk to
// empty with a clean ejection history and golden's counters, the faulty
// state is golden's, so the rest of the window, the drain and the horizon
// are synthesized (ExitReconverged): a few flag and counter compares a
// cycle. A run whose faults never fired diverged nowhere and takes this
// exit too. (The frontier looks at a member's state on a backoff of its
// own; on the window's last cycle, where emptiness decides between this
// exit and the other, it is made to look at them all.) A run still
// divergent at window end finishes (drain, horizon, verdict) in finishRun,
// stepped by the frontier: the transcript covers golden's drain and
// everything after it.
// That holds for a run whose fault is still armed at window end too
// (permanent, intermittent): its members never retire, so it costs its
// cone until finishRun's probe finds the cone has stopped changing
// (ffProbe: a permanent fault is stationary) and fast-forwards.
func runFrontier(w *worker, gc *groupCtx, o Options, group []fault.Fault, st *runStats, ro *runObs) (rec trace.RunRecord, exit ExitPath, convCycles int64) {
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
		st.frontierStalls = fr.StallSkips()
		st.nodesCloned += fr.Copied() // on top of the fork's
	}()
	ro.setFrontier(fr)
	fa := ro.phase("fault-armed")
	for t := int64(0); t < o.PostInjectRun; t++ {
		fr.Step()
		if t == o.PostInjectRun-1 {
			fr.RetireAll()
		}
		if !n.FaultsQuiescent() || !fr.Empty() || !fr.Clean() || !fr.CountersGolden() {
			continue
		}
		st.simulated = n.Cycle() - gc.cycle
		st.synthesized += gc.cycle + o.PostInjectRun - n.Cycle()
		st.horizon = gc.cycle + o.PostInjectRun
		fa.End()
		rt := ro.phase("reconverged-tail")
		rt.SetAttr("reconverged_cycle", n.Cycle())
		rt.SetAttr("cycles_synthesized", gc.cycle+o.PostInjectRun-n.Cycle())
		rt.End()
		return synthesizeReconverged(n.Cycle(), eng, fv, gc.gfv, plane, group),
			ExitReconverged, n.Cycle() - gc.cycle
	}
	fa.End()
	rec = finishRun(fr, n, eng, fv, plane, gc, o, group, w, st, ro)
	st.simulated = n.Cycle() - gc.cycle
	return rec, ExitFull, 0
}

// synthesizeReconverged builds the run's record at cycle at, the
// reconvergence cycle, without simulating the rest of the window, the
// drain or the ForEVeR horizon. Soundness: an empty frontier with a clean
// ejection history and golden's counters proves the faulty run's past
// delivered exactly golden's flits and its future will replay golden's
// cycles bit for bit. Hence the verdict is the benign
// golden-vs-golden one, which is the zero Verdict (buildGroupCtx checked
// it OK, and OK means every field is zero); the drain succeeds exactly as
// golden's did; the NoCAlert engine — whose checkers are purely
// combinational per cycle — can assert nothing in the golden replay (the
// golden continuation asserted nothing, a precondition checked in
// buildGroupCtx), so its first detections and fired sets are already
// final; and ForEVeR's counter state, a function of the injection and
// ejection histories alone, equals the golden monitor gfv's, so its
// future flags are gfv's recorded tail from cycle at on.
func synthesizeReconverged(at int64, eng *core.Engine, fv, gfv *forever.Monitor, plane *fault.Plane, group []fault.Fault) trace.RunRecord {
	// Flags the faulty monitor raised during the divergent window come
	// first; past the reconvergence cycle the faulty run would flag exactly
	// when the golden monitor did, so the recorded golden tail completes the
	// picture.
	fd := fv.FirstDetectionAfter(group[0].Cycle)
	if fd < 0 {
		fd = gfv.FirstDetectionAfter(at)
	}
	return assembleResult(eng, plane, group, golden.Verdict{}, true, fd)
}

// assembleResult builds the record of a run that is over — stepped to its
// end, or known from here on without stepping: the group's first fault,
// whether the plane fired, when and which of the NoCAlert engine's
// checkers asserted, and the three mechanisms' classifications against
// the golden-reference verdict. fd is ForEVeR's first flag at or after
// the injection cycle, -1 for none.
func assembleResult(eng *core.Engine, plane *fault.Plane, group []fault.Fault, verdict golden.Verdict, drained bool, fd int64) trace.RunRecord {
	f := &group[0]
	malicious := !verdict.OK()
	rec := trace.RunRecord{
		Router:    f.Site.Router,
		Signal:    f.Site.Kind.String(),
		Port:      f.Site.Port,
		VC:        f.Site.VC,
		Bit:       f.Bit,
		FaultType: f.Type.String(),
		Cycle:     f.Cycle,

		Drained:   drained,
		Malicious: malicious,
		Unbounded: verdict.Unbounded,

		CheckersFired:      eng.FiredCheckers(),
		FirstCycleCheckers: eng.FirstCycleCheckers(),
	}
	for i := range group {
		if plane.FiredAt(i) >= 0 {
			rec.Fired = true
			break
		}
	}
	rec.Outcome, rec.Latency = judge(eng.FirstDetection(), f.Cycle, malicious)
	rec.CautiousOutcome, rec.CautiousLatency = judge(eng.FirstHighRiskDetection(), f.Cycle, malicious)
	rec.ForeverOutcome, rec.ForeverLatency = judge(fd, f.Cycle, malicious)
	return rec
}

// judge classifies one mechanism on a run from the cycle it first
// detected (-1: never) and the verdict, returning its outcome and its
// detection latency after the injection cycle (-1 when it never detected).
func judge(detectCycle, injectCycle int64, malicious bool) (trace.Outcome, int64) {
	switch {
	case detectCycle < 0 && malicious:
		return trace.FalseNegative, -1
	case detectCycle < 0:
		return trace.TrueNegative, -1
	case malicious:
		return trace.TruePositive, detectCycle - injectCycle
	default:
		return trace.FalsePositive, detectCycle - injectCycle
	}
}

// runSlow is the full-simulation reference run path: fork, step the
// whole mesh through the window, then drain and horizon and compare in
// finishRun, with no early exit and no fast-forward.
func runSlow(w *worker, gc *groupCtx, o Options, group []fault.Fault, st *runStats, ro *runObs) trace.RunRecord {
	plane := fault.NewPlane(group...)
	n, eng, fv := w.forkRun(gc, o, plane, false, st, ro)
	fa := ro.phase("fault-armed")
	n.Run(o.PostInjectRun)
	fa.End()
	rec := finishRun(nil, n, eng, fv, plane, gc, o, group, w, st, ro)
	st.simulated = n.Cycle() - gc.cycle
	return rec
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
// from the frozen counters without mutating the monitor). A deadlocked
// router that keeps asserting still freezes: what it asserts on every
// later cycle it asserted in the confirming step, so the NoCAlert
// engine's first detections and fired sets are already final.
func finishRun(fr *sim.Frontier, n *sim.Network, eng *core.Engine, fv *forever.Monitor, plane *fault.Plane, gc *groupCtx, o Options, group []fault.Fault, w *worker, st *runStats, ro *runObs) trace.RunRecord {
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
		if fr != nil && probe.frozen(fr, n, fv) {
			frozen = true
			break
		}
		s.Step()
	}
	if !drained && !frozen {
		drained = s.Quiet()
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
		if fr != nil && probe.frozen(fr, n, fv) {
			frozen = true
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
	if fr != nil {
		// A frontier run exists only over a golden log that is OK()
		// against itself (buildGroupCtx), which is what the delta verdict
		// rests on.
		st.verdict = w.delta.Compare(gc.goldenLog, fr.Replaced(), n.Ejections(), drained)
	} else {
		w.flog = golden.FromEjectionsInto(w.flog, n.Ejections(), gc.cycle)
		st.verdict = golden.Compare(gc.goldenLog, w.flog, drained)
	}
	fd := fv.FirstDetectionAfter(gc.cycle)
	if fd < 0 && projectUntil >= 0 {
		// The frozen state replays identically through [n.Cycle(),
		// projectUntil): only the epoch-boundary checks remain.
		fd = fv.ProjectFrozenDetection(n.Cycle(), projectUntil)
	}
	return assembleResult(eng, plane, group, st.verdict, drained, fd)
}

// SampleFaults draws n distinct single-bit transient faults injecting
// at cycle, uniformly over every fault location of the mesh (or all of
// them when n is 0 or exceeds the population). The draw is
// deterministic in seed. Sparse draws (2n < population) sample global
// bit indices directly instead of materializing one Fault per location,
// and a drawn index is placed by per-router bit totals
// (fault.Params.RouterBits) with only its router's sites enumerated, so
// sampling a few hundred faults from a large mesh costs a pass over the
// routers and the sites of the routers drawn, not of the mesh.
func SampleFaults(p fault.Params, n int, seed uint64, cycle int64) []fault.Fault {
	// prefix[r] is the index of router r's first bit: the draw is over
	// per-router bit totals, and only the routers drawn are enumerated.
	nodes := p.Mesh.Nodes()
	prefix := make([]int, nodes+1)
	for r := 0; r < nodes; r++ {
		prefix[r+1] = prefix[r] + p.RouterBits(r)
	}
	total := prefix[nodes]
	if n <= 0 || n >= total {
		all := make([]fault.Fault, 0, total)
		for _, s := range p.EnumerateSites() {
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
	// A drawn router's sites, and where each one's bits start in it.
	type routerSites struct {
		sites []fault.Site
		first []int
	}
	drawn := make([]routerSites, nodes)
	out := make([]fault.Fault, len(idx))
	for i, v := range idx {
		r := sort.SearchInts(prefix, v+1) - 1
		rs := &drawn[r]
		if rs.sites == nil {
			rs.sites = p.EnumerateRouterSites(r)
			rs.first = make([]int, len(rs.sites))
			for k := 1; k < len(rs.sites); k++ {
				rs.first[k] = rs.first[k-1] + rs.sites[k-1].Width
			}
		}
		bit := v - prefix[r]
		k := sort.SearchInts(rs.first, bit+1) - 1
		out[i] = fault.Fault{Site: rs.sites[k], Bit: bit - rs.first[k], Cycle: cycle, Type: fault.Transient}
	}
	return out
}
