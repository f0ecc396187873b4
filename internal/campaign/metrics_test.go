package campaign

import (
	"bytes"
	"strings"
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
	walls := make(map[int]float64)
	var summed RunCounts
	rep, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   100,
		PostInjectRun: 250,
		DrainDeadline: 3000,
		Forever:       forever.Options{Epoch: 250, HopLatency: 1},
		Faults:        faults,
		Exec:          Exec{Metrics: reg},
		OnResult: func(rec *trace.RunRecord, c RunCounts, _ float64) {
			if _, dup := walls[rec.Index]; dup {
				t.Errorf("OnResult called twice for index %d", rec.Index)
			}
			walls[rec.Index] = rec.WallSeconds
			if c.FastPathHits+c.ReconvergedHits+c.FullSimRuns != 1 || c.ForkedRuns > 1 || c.FrontierRuns > 1 ||
				(c.FastPathHits == 1) != rec.FastPath {
				t.Errorf("run %d (fast_path %t) counted as %+v, want one run on one exit path", rec.Index, rec.FastPath, c)
			}
			summed.Add(c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(walls) != len(faults) {
		t.Fatalf("OnResult fired for %d runs, want %d", len(walls), len(faults))
	}
	for i, wall := range walls {
		if wall <= 0 {
			t.Fatalf("run %d has non-positive wall time %g s", i, wall)
		}
	}
	if summed != rep.RunCounts {
		t.Fatalf("the runs' counts sum to %+v, the report has %+v", summed, rep.RunCounts)
	}
	if n := rep.FastPathHits + rep.ReconvergedHits + rep.FullSimRuns; n != len(faults) || rep.FastPathHits == 0 || rep.ForkedRuns != n {
		t.Fatalf("report counts %+v over %d runs injecting at cycle 100: want every run on one exit path, some fast, all forked", rep.RunCounts, len(faults))
	}

	counter := func(name string) int64 { return reg.Counter(name).Value() }
	for name, want := range map[string]int64{
		MetricFastPathHits:      int64(rep.FastPathHits),
		MetricReconvergenceHits: int64(rep.ReconvergedHits),
		MetricFullSimRuns:       int64(rep.FullSimRuns),
		MetricForkedRuns:        int64(rep.ForkedRuns),
		MetricFrontierRuns:      int64(rep.FrontierRuns),
		MetricSimulatedCycles:   rep.SimulatedCycles,
		MetricSynthesizedCycles: rep.SynthesizedCycles,
		MetricWarmstartSaved:    rep.WarmstartCyclesSaved,
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		MetricSnapshotBytes: rep.SnapshotBytes,
		MetricTimelineBytes: rep.TimelineBytes,
	} {
		if got := int64(reg.Gauge(name).Value()); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram(MetricGoldenGroupWait, groupWaitBounds).Count(); got != int64(len(faults)) {
		t.Fatalf("%s count = %d, want %d", MetricGoldenGroupWait, got, len(faults))
	}
}

// metricReaders is the registry's whole family list, each family with
// what reads it outside its own test. A per-run number that the run
// record or the run span already carries has no place here: its readers
// read those.
var metricReaders = map[string]string{
	MetricFastPathHits:      "bench/fleet.go's fleet totals",
	MetricReconvergenceHits: "bench/fleet.go's fleet totals",
	MetricFullSimRuns:       "bench/fleet.go's fleet totals",
	MetricForkedRuns:        "bench/fleet.go's fleet totals",
	MetricFrontierRuns:      "bench/fleet.go's fleet totals",
	MetricSimulatedCycles:   "bench/fleet.go's fleet totals",
	MetricSynthesizedCycles: "bench/fleet.go's fleet totals",
	MetricWarmstartSaved:    "bench/fleet.go's fleet totals",
	MetricSnapshotBytes:     "bench/fleet.go's fleet totals",
	MetricTimelineBytes:     "bench/fleet.go's fleet totals",
	MetricGoldenCacheHits:   "e2e/metrics_test.go and e2e/distributed_test.go",
	MetricGoldenCacheMisses: "e2e/metrics_test.go and e2e/distributed_test.go",
	MetricGoldenCacheBytes:  "e2e/metrics_test.go and e2e/distributed_test.go",
	MetricGoldenGroupWait:   "e2e/metrics_test.go and pipeline_test.go",
}

// TestMetricFamiliesHaveReaders holds the registry a campaign fills to
// metricReaders: a family is exported only while something reads it. It
// runs the golden 4×4 campaign with a registry and requires the families
// of its OpenMetrics exposition to be the table's, no more and no fewer.
// A new family comes with its reader in the table; one whose last reader
// goes, goes with it.
func TestMetricFamiliesHaveReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	opts := spec.Options()
	opts.Faults = spec.Universe()
	opts.Metrics = metrics.NewRegistry()
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	if err := opts.Metrics.WriteOpenMetrics(&exp); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, line := range strings.Split(exp.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got[f[2]] = true
		}
	}
	want := map[string]bool{}
	for name, reader := range metricReaders {
		if reader == "" {
			t.Errorf("%s names no reader", name)
		}
		// A counter's family drops the _total its sample carries.
		want[strings.TrimSuffix(name, "_total")] = true
	}
	for f := range got {
		if !want[f] {
			t.Errorf("the registry exports %s, which no reader reads", f)
		}
	}
	for f := range want {
		if !got[f] {
			t.Errorf("%s has a reader but the campaign never exports it", f)
		}
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
