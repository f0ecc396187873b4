package campaign

import (
	"nocalert/internal/core"
	"nocalert/internal/obs"
	"nocalert/internal/sim"
	"nocalert/internal/trace"
)

// runObs bundles the observability context one run threads through
// fork, window, drain and horizon: its run span. A run gets a runObs only
// when its span is sampled; a nil *runObs is the disabled path — every
// method no-ops — so the hot loops pay one pointer check when tracing is
// off or the run is sampled out.
type runObs struct {
	span *obs.Span
	idx  int // run index in FaultGroups
	// frontier is the run's divergence frontier, once it has one: every
	// phase span opened from then on carries its membership.
	frontier *sim.Frontier
}

// phase opens a phase span under the run span (nil when the run span
// is nil, so phases inherit the run's sampling decision). On a
// frontier-driven run it is stamped with the frontier's membership at
// phase start.
func (ro *runObs) phase(name string) *obs.Span {
	if ro == nil {
		return nil
	}
	sp := ro.span.Child("phase", name)
	if ro.frontier != nil {
		sp.SetAttr("frontier_routers", ro.frontier.Size())
	}
	return sp
}

// setFrontier notes the run's divergence frontier for the phase spans
// opened from here on.
func (ro *runObs) setFrontier(fr *sim.Frontier) {
	if ro != nil {
		ro.frontier = fr
	}
}

// finish stamps the run span with the run's record and the honest cycle
// accounting and closes the span. The attribute invariant every exit
// path satisfies (test-enforced):
//
//	fork_cycle + cycles_simulated + cycles_synthesized == horizon_cycle
func (ro *runObs) finish(rec *trace.RunRecord, exit ExitPath, convCycles int64, st *runStats) {
	if ro == nil {
		return
	}
	s := ro.span
	s.SetAttr("run_index", ro.idx)
	s.SetAttr("inject_cycle", rec.Cycle)
	s.SetAttr("fork_cycle", st.warmSaved)
	s.SetAttr("forked", st.forked)
	s.SetAttr("nodes_cloned", st.nodesCloned)
	s.SetAttr("cycles_simulated", st.simulated)
	s.SetAttr("cycles_synthesized", st.synthesized)
	s.SetAttr("horizon_cycle", st.horizon)
	if st.frontier {
		s.SetAttr("frontier_peak_routers", st.frontierPeak)
		s.SetAttr("frontier_joins", st.frontierJoins)
		s.SetAttr("frontier_retire_probes", st.frontierProbes)
		s.SetAttr("stalled_skips", st.frontierStalls)
	}
	s.SetAttr("exit", exit.String())
	s.SetAttr("fired", rec.Fired)
	s.SetAttr("drained", rec.Drained)
	s.SetAttr("verdict_ok", !rec.Malicious)
	s.SetAttr("outcome", rec.Outcome.String())
	s.SetAttr("detected", rec.Outcome.Detected())
	if rec.Outcome.Detected() {
		s.SetAttr("detect_cycle", rec.Cycle+rec.Latency)
		s.SetAttr("latency", rec.Latency)
		s.SetAttr("checkers_fired", checkerInts(rec.CheckersFired))
	}
	if exit == ExitReconverged {
		s.SetAttr("reconverged_cycles", convCycles)
	}
	s.End()
}

// checkerInts converts checker IDs to plain int64s so the span attrs
// JSON- and OTLP-encode as a numeric array.
func checkerInts(ids []core.CheckerID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}
