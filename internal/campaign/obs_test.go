package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// obsOpts returns the observability test campaign: a 4×4 mesh with
// enough faults to exercise every exit path (fastpath, reconverged,
// full, frozen fast-forward).
func obsOpts(nFaults int) Options {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	return Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Forever:       forever.Options{Epoch: 400, HopLatency: 1},
		Faults:        SampleFaults(params, nFaults, 5, 300),
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// childIndex maps parent span ID → child phase names.
func childPhases(spans []obs.SpanRecord) map[string][]string {
	out := map[string][]string{}
	for _, s := range spans {
		if s.Kind == "phase" {
			out[s.ParentID] = append(out[s.ParentID], s.Name)
		}
	}
	return out
}

func hasPhase(phases []string, name string) bool {
	for _, p := range phases {
		if p == name {
			return true
		}
	}
	return false
}

// TestSpanStreamGolden4x4 is the tentpole acceptance test: a 4×4
// campaign with tracing on produces a span stream where every run's
// cycle accounting closes (fork_cycle + cycles_simulated +
// cycles_synthesized == horizon_cycle), exit paths carry their phase
// spans, per-exit span counts match the report's counters, and the
// serialized report is byte-identical to an untraced run's.
func TestSpanStreamGolden4x4(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const nFaults = 80
	plain, err := Run(obsOpts(nFaults))
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	reg := metrics.NewRegistry()
	tr := obs.New(obs.Options{Writer: &stream, Metrics: reg})
	o := obsOpts(nFaults)
	o.Metrics = reg
	o.Tracer = tr
	traced, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Tracing must be result-invisible: byte-identical reports.
	if !bytes.Equal(reportJSON(t, plain), reportJSON(t, traced)) {
		t.Error("report JSON differs between traced and untraced campaigns")
	}

	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var campSpan *obs.SpanRecord
	runSpans := map[string]obs.SpanRecord{}
	for i, s := range spans {
		if s.TraceID != tr.TraceID() {
			t.Fatalf("span %s carries foreign trace ID %s", s.SpanID, s.TraceID)
		}
		switch s.Kind {
		case "campaign":
			campSpan = &spans[i]
		case "run":
			runSpans[s.SpanID] = s
		}
	}
	if campSpan == nil {
		t.Fatal("no campaign span in the stream")
	}
	if len(runSpans) != nFaults {
		t.Fatalf("%d run spans, want %d (SampleEvery=1)", len(runSpans), nFaults)
	}
	phases := childPhases(spans)
	if !hasPhase(phases[campSpan.SpanID], "golden-warmup") {
		t.Error("campaign span has no golden-warmup phase")
	}

	exitCounts := map[string]int{}
	for id, s := range runSpans {
		if s.ParentID != campSpan.SpanID {
			t.Errorf("run span %s not parented to the campaign span", id)
		}
		fork, ok1 := s.Int("fork_cycle")
		simd, ok2 := s.Int("cycles_simulated")
		synth, ok3 := s.Int("cycles_synthesized")
		horizon, ok4 := s.Int("horizon_cycle")
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("run span %s missing accounting attrs: %v", id, s.Attrs)
		}
		if fork+simd+synth != horizon {
			t.Errorf("run span %s: fork %d + simulated %d + synthesized %d != horizon %d",
				id, fork, simd, synth, horizon)
		}
		exit, _ := s.Attrs["exit"].(string)
		exitCounts[exit]++
		ph := phases[id]
		switch exit {
		case "reconverged":
			if !hasPhase(ph, "reconverged-tail") {
				t.Errorf("reconverged run %s has no reconverged-tail phase", id)
			}
		case "fastpath":
			if !hasPhase(ph, "fault-armed") {
				t.Errorf("fastpath run %s has no fault-armed phase", id)
			}
		case "full":
			if !hasPhase(ph, "drain") {
				t.Errorf("full run %s has no drain phase", id)
			}
			if !hasPhase(ph, "verdict") {
				t.Errorf("full run %s has no verdict phase: its log, verdict and result assembly are unattributed", id)
			}
			if synth > 0 && !hasPhase(ph, "fast-forward") {
				t.Errorf("fast-forwarded run %s (synthesized=%d) has no fast-forward phase", id, synth)
			}
		default:
			t.Errorf("run span %s has unknown exit %q", id, exit)
		}
		if forked, _ := s.Attrs["forked"].(bool); forked && !hasPhase(ph, "warm-start") {
			t.Errorf("forked run %s has no warm-start phase", id)
		}
		if _, frontier := s.Int("frontier_peak_routers"); frontier {
			if _, ok := s.Int("frontier_retire_probes"); !ok {
				t.Errorf("frontier run %s has no frontier_retire_probes", id)
			}
			if _, ok := s.Int("stalled_skips"); !ok {
				t.Errorf("frontier run %s has no stalled_skips", id)
			}
		}
	}
	// The frontier carries a run to its end, so the drain and horizon
	// phases say how many routers it was stepping when they began, and the
	// run's peak, taken when the run ends, bounds them.
	stamped := 0
	for _, s := range spans {
		if s.Kind != "phase" || (s.Name != "drain" && s.Name != "horizon") {
			continue
		}
		peak, ok := runSpans[s.ParentID].Int("frontier_peak_routers")
		if !ok {
			t.Errorf("%s phase %s: run span has no frontier_peak_routers", s.Name, s.SpanID)
			continue
		}
		if size, ok := s.Int("frontier_routers"); !ok || size > peak {
			t.Errorf("%s phase %s: frontier_routers = %d (present %t), run peak %d", s.Name, s.SpanID, size, ok, peak)
		}
		stamped++
	}
	if stamped == 0 {
		t.Error("no drain or horizon phase in the stream")
	}
	if exitCounts["fastpath"] != traced.FastPathHits {
		t.Errorf("fastpath spans %d != report hits %d", exitCounts["fastpath"], traced.FastPathHits)
	}
	if exitCounts["reconverged"] != traced.ReconvergedHits {
		t.Errorf("reconverged spans %d != report hits %d", exitCounts["reconverged"], traced.ReconvergedHits)
	}
	if exitCounts["fastpath"] == 0 || exitCounts["full"] == 0 {
		t.Errorf("campaign too uniform to exercise exits: %v", exitCounts)
	}

	// The phase-duration histograms fed from phase spans and the new
	// detection-latency histogram must be live in the registry.
	snap := reg.Snapshot()
	hist := map[string]int64{}
	for _, h := range snap.Histograms {
		hist[h.Name] = h.Count
	}
	if hist[obs.PhaseMetricName("drain")] == 0 {
		t.Error("campaign_phase_drain_seconds histogram never fed")
	}
	detected := 0
	for _, r := range traced.Results {
		if r.Outcome.Detected() {
			detected++
		}
	}
	if hist[MetricDetectionLatency] != int64(detected) {
		t.Errorf("detection-latency count %d != detected runs %d", hist[MetricDetectionLatency], detected)
	}
}

// TestSpanSamplingDeterministic checks run-span sampling: with
// SampleEvery=4 only indices 0, 4, 8, ... carry run spans, and
// campaign-level spans are never sampled out.
func TestSpanSamplingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const nFaults = 17
	var stream bytes.Buffer
	tr := obs.New(obs.Options{Writer: &stream, SampleEvery: 4})
	o := obsOpts(nFaults)
	o.Tracer = tr
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		t.Fatal(err)
	}
	var runs, camps int
	for _, s := range spans {
		switch s.Kind {
		case "run":
			runs++
			idx, ok := s.Int("run_index")
			if !ok || idx%4 != 0 {
				t.Errorf("unsampled run index %d has a span", idx)
			}
		case "campaign":
			camps++
		}
	}
	if want := (nFaults + 3) / 4; runs != want {
		t.Errorf("%d run spans, want %d", runs, want)
	}
	if camps != 1 {
		t.Errorf("%d campaign spans, want 1", camps)
	}
}

// TestForkVerifyMismatchFails corrupts the recorded fork-point
// fingerprint and checks the group builder's fork verification fails the
// campaign with an error naming the fork cycle: the engine's most
// important trust boundary fails closed.
func TestForkVerifyMismatchFails(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	n, err := sim.New(sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fv := forever.NewMonitor(&rc, forever.Options{})
	n.AttachMonitor(fv)
	n.Run(50)
	gc := &groupCtx{cycle: n.Cycle(), snap: n.CloneInto(nil, nil), forkFP: n.Fingerprint() ^ 0xdead, gfv: fv}

	var w worker
	if _, err := w.verifyFork(gc); err == nil {
		t.Fatal("fork with corrupted fingerprint succeeded")
	} else if want := fmt.Sprintf("cycle %d", gc.cycle); !strings.Contains(err.Error(), want) {
		t.Errorf("fork-verify error %q does not name %q", err, want)
	}
}

// TestMissedDetectionAnomaly checks an FN verdict reaches the run span:
// the paper's zero-false-negative claim failing must be visible on the
// per-run timeline (as it is in the report and the checkpoint record).
// TestSpanStreamGolden4x4's campaign never produces an FN.
func TestMissedDetectionAnomaly(t *testing.T) {
	var stream bytes.Buffer
	tr := obs.New(obs.Options{Writer: &stream})
	ro := &runObs{span: tr.Start(nil, "run", "run[3]"), idx: 3}
	rec := trace.RunRecord{Cycle: 300, Outcome: trace.FalseNegative}
	var st runStats
	ro.finish(&rec, ExitFull, 0, &st)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(&stream)
	if err != nil || len(spans) != 1 {
		t.Fatalf("ReadSpans: %v (%d spans, want 1)", err, len(spans))
	}
	if got := spans[0].Attrs["outcome"]; got != "FN" {
		t.Errorf("run span outcome = %v, want FN", got)
	}
	if idx, _ := spans[0].Int("run_index"); idx != 3 {
		t.Errorf("run span run_index = %d, want 3", idx)
	}
}

// TestNilObsIsFree pins the disabled path: campaign code must accept a
// nil *runObs everywhere (tracing off, or the run sampled out, allocates
// nothing).
func TestNilObsIsFree(t *testing.T) {
	var ro *runObs
	ro.finish(&trace.RunRecord{}, ExitFull, 0, &runStats{})
	if s := ro.phase("p"); s != nil {
		t.Fatal("nil runObs produced a span")
	}
}
