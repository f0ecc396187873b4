package campaign

import (
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/metrics"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// TestCampaignMetricsMatchReport runs an instrumented campaign and
// cross-checks every published counter against the aggregated report —
// the same consistency bar the -trace NDJSON stream is held to.
func TestCampaignMetricsMatchReport(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, 40, 11, 100)

	reg := metrics.NewRegistry()
	type seen struct {
		wall float64
		exit ExitPath
	}
	results := make(map[int]seen)
	rep, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   100,
		PostInjectRun: 250,
		DrainDeadline: 3000,
		Forever:       forever.Options{Epoch: 250, HopLatency: 1},
		Faults:        faults,
		Metrics:       reg,
		OnResult: func(rec *trace.RunRecord, exit ExitPath) {
			if _, dup := results[rec.Index]; dup {
				t.Errorf("OnResult called twice for index %d", rec.Index)
			}
			results[rec.Index] = seen{wall: rec.WallSeconds, exit: exit}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(results) != len(faults) {
		t.Fatalf("OnResult fired for %d runs, want %d", len(results), len(faults))
	}
	fastSeen, reconvSeen := 0, 0
	for i, s := range results {
		if s.wall <= 0 {
			t.Fatalf("run %d has non-positive wall time %g s", i, s.wall)
		}
		switch s.exit {
		case ExitFastPath:
			fastSeen++
		case ExitReconverged:
			reconvSeen++
		}
	}
	if fastSeen != rep.FastPathHits {
		t.Fatalf("OnResult fastPath count %d != report FastPathHits %d", fastSeen, rep.FastPathHits)
	}
	if reconvSeen != rep.ReconvergedHits {
		t.Fatalf("OnResult reconverged count %d != report ReconvergedHits %d", reconvSeen, rep.ReconvergedHits)
	}

	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if got := counter(MetricRuns); got != int64(len(faults)) {
		t.Fatalf("%s = %d, want %d", MetricRuns, got, len(faults))
	}
	if got := counter(MetricFastPathHits); got != int64(rep.FastPathHits) {
		t.Fatalf("%s = %d, want %d", MetricFastPathHits, got, rep.FastPathHits)
	}
	if got := counter(MetricFastPathMisses); got != int64(len(faults)-rep.FastPathHits) {
		t.Fatalf("%s = %d, want %d", MetricFastPathMisses, got, len(faults)-rep.FastPathHits)
	}
	if got := counter(MetricReconvergenceHits); got != int64(rep.ReconvergedHits) {
		t.Fatalf("%s = %d, want %d", MetricReconvergenceHits, got, rep.ReconvergedHits)
	}
	wantFull := len(faults) - rep.FastPathHits - rep.ReconvergedHits
	if got := counter(MetricFullSimRuns); got != int64(wantFull) {
		t.Fatalf("%s = %d, want %d", MetricFullSimRuns, got, wantFull)
	}
	if got := reg.Histogram(MetricReconvergenceCycles, reconvCyclesBounds).Count(); got != int64(rep.ReconvergedHits) {
		t.Fatalf("%s count = %d, want %d", MetricReconvergenceCycles, got, rep.ReconvergedHits)
	}
	if got := counter(MetricFired); got != int64(rep.FiredCount()) {
		t.Fatalf("%s = %d, want %d", MetricFired, got, rep.FiredCount())
	}
	if got := counter(MetricVerdictMalicious); got != int64(rep.MaliciousCount()) {
		t.Fatalf("%s = %d, want %d", MetricVerdictMalicious, got, rep.MaliciousCount())
	}
	if got := counter(MetricVerdictOK); got != int64(len(faults)-rep.MaliciousCount()) {
		t.Fatalf("%s = %d, want %d", MetricVerdictOK, got, len(faults)-rep.MaliciousCount())
	}
	for _, m := range []Mechanism{NoCAlert, Cautious, ForEVeR} {
		cov := rep.Coverage(m)
		for o, want := range map[trace.Outcome]int{
			trace.TruePositive: cov.TP, trace.FalsePositive: cov.FP,
			trace.TrueNegative: cov.TN, trace.FalseNegative: cov.FN,
		} {
			if got := counter(OutcomeMetricName(m, o)); got != int64(want) {
				t.Fatalf("%s = %d, want %d", OutcomeMetricName(m, o), got, want)
			}
		}
	}
	if got := reg.Histogram(MetricRunSeconds, runSecondsBounds).Count(); got != int64(len(faults)) {
		t.Fatalf("%s count = %d, want %d", MetricRunSeconds, got, len(faults))
	}
	if fps := reg.Gauge(MetricFaultsPerSec).Value(); fps <= 0 {
		t.Fatalf("%s = %g, want > 0 after a finished campaign", MetricFaultsPerSec, fps)
	}
	if workers := reg.Gauge(MetricWorkers).Value(); workers < 1 {
		t.Fatalf("%s = %g, want >= 1", MetricWorkers, workers)
	}
}

// TestCampaignMetricsOffIsInert: with Metrics nil and no OnResult the
// campaign must not touch telemetry at all — the "off by default, no
// regression" contract of the benchmark baseline.
func TestCampaignMetricsOffIsInert(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	rep, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.1, Seed: 5},
		InjectCycle:   60,
		PostInjectRun: 150,
		DrainDeadline: 2000,
		Forever:       forever.Options{Epoch: 200, HopLatency: 1},
		Faults:        SampleFaults(params, 6, 2, 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(rep.Results))
	}
}
