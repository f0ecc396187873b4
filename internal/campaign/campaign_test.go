package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// repCache memoizes campaign reports across tests (each run costs
// seconds; several tests interrogate the same campaign).
var repCache = map[[2]int64]*Report{}

// testCampaign runs a small but representative campaign on a 4×4 mesh.
func testCampaign(t *testing.T, injectCycle int64, nFaults int) *Report {
	t.Helper()
	key := [2]int64{injectCycle, int64(nFaults)}
	if rep, ok := repCache[key]; ok {
		return rep
	}
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	simCfg := sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3}
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, nFaults, 5, injectCycle)
	rep, err := Run(Options{
		Sim:           simCfg,
		InjectCycle:   injectCycle,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Forever:       forever.Options{Epoch: 400, HopLatency: 1},
		Faults:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	repCache[key] = rep
	return rep
}

// TestObservation1ZeroFalseNegatives is the paper's headline claim:
// every fault that violates network correctness is detected — by both
// NoCAlert and ForEVeR.
func TestObservation1ZeroFalseNegatives(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	if rep.MaliciousCount() == 0 {
		t.Fatal("campaign produced no malicious faults; nothing verified")
	}
	if fn := rep.FalseNegatives(NoCAlert); fn != 0 {
		for _, r := range rep.Results {
			if r.Outcome == FalseNegative {
				t.Errorf("NoCAlert FN: %s verdict=%+v", r.Fault.String(), r.Verdict)
			}
		}
		t.Fatalf("NoCAlert false negatives: %d", fn)
	}
	if fn := rep.FalseNegatives(ForEVeR); fn != 0 {
		for _, r := range rep.Results {
			if r.ForeverOutcome == FalseNegative {
				t.Errorf("ForEVeR FN: %s verdict=%+v", r.Fault.String(), r.Verdict)
			}
		}
		t.Fatalf("ForEVeR false negatives: %d", fn)
	}
}

// TestFig7LatencyShape checks the paper's Figure 7 shape: the vast
// majority of NoCAlert's true positives are caught in the injection
// cycle itself, with a short tail, while ForEVeR's detections are
// quantized to epochs (hundreds to thousands of cycles).
func TestFig7LatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	na := rep.LatencyCDF(NoCAlert)
	fv := rep.LatencyCDF(ForEVeR)
	if na.N() < 10 {
		t.Fatalf("too few true positives (%d) to judge the latency shape", na.N())
	}
	if sc := na.AtOrBelow(0); sc < 0.75 {
		t.Errorf("NoCAlert same-cycle detection = %.0f%%, want >= 75%% (paper: 97%%)", 100*sc)
	}
	if fv.N() > 0 && fv.Mean() < 20*max(na.Mean(), 1.0) {
		t.Errorf("ForEVeR mean latency %.1f not >> NoCAlert %.1f (paper: >100x)", fv.Mean(), na.Mean())
	}
}

// TestObservation5 verifies the paper's central empirical corollary:
// faults that never cause an invariance violation are always benign.
func TestObservation5(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	o := rep.Observation5()
	if o.NeverViolated != o.NeverViolatedBenign {
		t.Fatalf("%d faults never asserted but %d were benign — a non-invariant fault broke the network undetected",
			o.NeverViolated, o.NeverViolatedBenign)
	}
	if o.NonInstant == 0 {
		t.Fatal("no non-instant faults in the sample; observation not exercised")
	}
}

// TestCautiousReducesFalsePositives verifies Observation 2's direction:
// deferring the low-risk checkers can only reduce false positives and
// must not create false negatives.
func TestCautiousReducesFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	full := rep.Coverage(NoCAlert)
	cautious := rep.Coverage(Cautious)
	if cautious.FP > full.FP {
		t.Errorf("cautious FP %d > full FP %d", cautious.FP, full.FP)
	}
	if cautious.FN != 0 {
		t.Errorf("cautious mode introduced %d false negatives", cautious.FN)
	}
}

// TestObservation3PermanentGrantToNobody reproduces the paper's
// Observation 3: a transient fault suppressing an arbiter grant is a
// one-cycle NOP (benign), while the same fault made permanent starves
// the port and deadlocks traffic (malicious) — and both are detected.
func TestObservation3PermanentGrantToNobody(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	simCfg := sim.Config{Router: rc, InjectionRate: 0.15, Seed: 11}
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	const inject = 400

	var sites []fault.Site
	for _, s := range params.EnumerateSites() {
		if s.Kind == fault.SA1Gnt {
			sites = append(sites, s)
		}
	}
	if len(sites) == 0 {
		t.Fatal("no SA1 grant sites enumerated")
	}
	run := func(typ fault.Type) (malicious, deadlocked, detected, fired int, n int) {
		var faults []fault.Fault
		for _, s := range sites[:12] {
			faults = append(faults, fault.Fault{Site: s, Bit: 0, Cycle: inject, Type: typ})
		}
		rep, err := Run(Options{
			Sim: simCfg, InjectCycle: inject, PostInjectRun: 400, DrainDeadline: 4000,
			Forever: forever.Options{Epoch: 400}, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Fired {
				fired++
			}
			if !r.Verdict.OK() {
				malicious++
			}
			if r.Verdict.Unbounded {
				deadlocked++
			}
			if r.Detected {
				detected++
			}
		}
		return malicious, deadlocked, detected, fired, len(rep.Results)
	}

	tMal, tDead, _, tFired, _ := run(fault.Transient)
	pMal, pDead, pDet, pFired, pN := run(fault.Permanent)
	if tFired == 0 || pFired == 0 {
		t.Fatal("no faults fired; scenario not exercised")
	}
	// Permanent faults must be strictly more destructive.
	if pDead <= tDead {
		t.Errorf("permanent deadlocks (%d) not greater than transient (%d)", pDead, tDead)
	}
	if pMal <= tMal {
		t.Errorf("permanent malicious (%d) not greater than transient (%d)", pMal, tMal)
	}
	// Every permanent fault on a live grant line must be detected.
	if pDet < pFired {
		t.Errorf("only %d of %d fired permanent faults detected", pDet, pFired)
	}
	_ = pN
}

// TestCheckerAblationCausesFalseNegatives demonstrates the paper's
// "no single checker is redundant" remark from the other side:
// disabling whole checker families lets real errors escape.
func TestCheckerAblationCausesFalseNegatives(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	simCfg := sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3}
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, 220, 5, 300)

	// Disable everything except the arbiter checkers (4-13).
	var disabled []core.CheckerID
	for id := core.CheckerID(1); id <= core.NumCheckers; id++ {
		if id >= 4 && id <= 13 {
			continue
		}
		disabled = append(disabled, id)
	}
	rep, err := Run(Options{
		Sim: simCfg, InjectCycle: 300, PostInjectRun: 400, DrainDeadline: 5000,
		Forever: forever.Options{Epoch: 400}, Faults: faults,
		CheckersDisabled: disabled,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fn := rep.FalseNegatives(NoCAlert); fn == 0 {
		t.Error("arbiter-only checker subset still has zero false negatives; ablation shows no coverage loss")
	}
}

// TestSampleFaultsDeterministic checks the sampler is reproducible and
// well-formed.
func TestSampleFaultsDeterministic(t *testing.T) {
	params := fault.Params{Mesh: topology.NewMesh(4, 4), VCs: 4, BufDepth: 5}
	a := SampleFaults(params, 50, 9, 100)
	b := SampleFaults(params, 50, 9, 100)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("want 50 faults, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample not deterministic at %d: %v vs %v", i, &a[i], &b[i])
		}
		if a[i].Bit < 0 || a[i].Bit >= a[i].Site.Width {
			t.Fatalf("fault %v has out-of-range bit", &a[i])
		}
		if a[i].Cycle != 100 || a[i].Type != fault.Transient {
			t.Fatalf("fault %v has wrong cycle/type", &a[i])
		}
	}
	all := SampleFaults(params, 0, 1, 0)
	bits := 0
	for _, s := range params.EnumerateSites() {
		bits += s.Width
	}
	if len(all) != bits {
		t.Fatalf("full population %d != site bits %d", len(all), bits)
	}
}

// TestOutcomeStrings pins the outcome abbreviations used in reports.
func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		TrueNegative: "TN", TruePositive: "TP", FalsePositive: "FP", FalseNegative: "FN",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	for m, want := range map[Mechanism]string{
		NoCAlert: "NoCAlert", Cautious: "NoCAlert Cautious", ForEVeR: "ForEVeR",
	} {
		if m.String() != want {
			t.Errorf("Mechanism(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestRecoveryExposure: NoCAlert's instant detection must expose far
// less committed traffic than ForEVeR's epoch-delayed detection — the
// quantitative form of the paper's "ultra-fast response by a potential
// fault recovery scheme" argument.
func TestRecoveryExposure(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	na := rep.RecoveryExposure(NoCAlert)
	fv := rep.RecoveryExposure(ForEVeR)
	if na.MeanFlitsAtRisk >= fv.MeanFlitsAtRisk {
		t.Errorf("NoCAlert exposure %.1f not below ForEVeR %.1f",
			na.MeanFlitsAtRisk, fv.MeanFlitsAtRisk)
	}
	if fv.MeanLatency < 10*na.MeanLatency+1 {
		t.Errorf("latency gap too small: %.1f vs %.1f", na.MeanLatency, fv.MeanLatency)
	}
}

// TestWriteJSON validates the machine-readable export round-trips.
func TestWriteJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 300, 220)
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"fig6_coverage", "fig7_latency_cdf", "fig8_checker_shares", "fig9_simultaneity_hist", "obs5", "recovery_exposure"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	if int(decoded["faults"].(float64)) != len(rep.Results) {
		t.Error("fault count mismatch in JSON")
	}
}

// TestReportRendering smoke-tests the figure writers.
func TestReportRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	rep := testCampaign(t, 0, 60)
	var sb strings.Builder
	rep.WriteFig6(&sb)
	rep.WriteFig7(&sb)
	rep.WriteFig8(&sb)
	rep.WriteFig9(&sb)
	rep.WriteObs5(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Observation 5", "NoCAlert", "ForEVeR"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
}
