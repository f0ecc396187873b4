// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5) at test scale, plus micro-benchmarks and ablations.
//
//	go test -bench=. -benchmem
//
// Figure-level benchmarks run one scaled-down campaign (cached across
// benchmarks) and publish the scientific quantities as benchmark
// metrics, so `-bench` output doubles as a results table:
//
//	Fig6:  TP/FP/TN/FN percentages per mechanism
//	Fig7:  same-cycle share and latency percentiles
//	Fig8:  per-checker shares
//	Fig9:  simultaneity distribution
//	Fig10: area/power/critical-path overheads
//
// The full-scale (8×8, paper parameters) regeneration lives in
// cmd/faultcampaign and cmd/hwcost; EXPERIMENTS.md records those runs.
package nocalert_test

import (
	"runtime"
	"sync"
	"testing"

	"nocalert"
	"nocalert/internal/golden"
)

const (
	benchInject = 300
	benchFaults = 160
)

var (
	benchOnce sync.Once
	benchRep  *nocalert.CampaignReport
)

func benchCampaign(b *testing.B) *nocalert.CampaignReport {
	b.Helper()
	benchOnce.Do(func() {
		mesh := nocalert.NewMesh(4, 4)
		rc := nocalert.DefaultRouterConfig(mesh)
		params := nocalert.FaultParamsFor(&rc)
		rep, err := nocalert.RunCampaign(nocalert.CampaignOptions{
			Sim:           nocalert.SimConfig{Router: rc, InjectionRate: 0.12, Seed: 3},
			InjectCycle:   benchInject,
			PostInjectRun: 400,
			DrainDeadline: 5000,
			Forever:       nocalert.ForeverOptions{Epoch: 400, HopLatency: 1},
			Faults:        nocalert.SampleFaults(params, benchFaults, 5, benchInject),
		})
		if err != nil {
			panic(err)
		}
		benchRep = rep
	})
	return benchRep
}

// BenchmarkFig6CoverageBreakdown regenerates the Figure 6 bars.
func BenchmarkFig6CoverageBreakdown(b *testing.B) {
	rep := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.Coverage(nocalert.MechanismNoCAlert)
		_ = rep.Coverage(nocalert.MechanismCautious)
		_ = rep.Coverage(nocalert.MechanismForEVeR)
	}
	b.StopTimer()
	for _, m := range []nocalert.Mechanism{nocalert.MechanismNoCAlert, nocalert.MechanismCautious, nocalert.MechanismForEVeR} {
		cov := rep.Coverage(m)
		prefix := map[nocalert.Mechanism]string{
			nocalert.MechanismNoCAlert: "nocalert",
			nocalert.MechanismCautious: "cautious",
			nocalert.MechanismForEVeR:  "forever",
		}[m]
		b.ReportMetric(cov.TPPct, prefix+"_TP_%")
		b.ReportMetric(cov.FPPct, prefix+"_FP_%")
		b.ReportMetric(cov.FNPct, prefix+"_FN_%")
	}
}

// BenchmarkFig7DetectionLatency regenerates the Figure 7 CDF milestones.
func BenchmarkFig7DetectionLatency(b *testing.B) {
	rep := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.LatencyCDF(nocalert.MechanismNoCAlert)
		_ = rep.LatencyCDF(nocalert.MechanismForEVeR)
	}
	b.StopTimer()
	na := rep.LatencyCDF(nocalert.MechanismNoCAlert)
	fv := rep.LatencyCDF(nocalert.MechanismForEVeR)
	if na.N() > 0 {
		b.ReportMetric(100*na.AtOrBelow(0), "nocalert_samecycle_%")
		b.ReportMetric(float64(na.Max()), "nocalert_p100_cycles")
	}
	if fv.N() > 0 {
		b.ReportMetric(fv.Mean(), "forever_mean_cycles")
		b.ReportMetric(float64(fv.Max()), "forever_p100_cycles")
	}
}

// BenchmarkFig8PerCheckerShare regenerates the Figure 8 attribution.
func BenchmarkFig8PerCheckerShare(b *testing.B) {
	rep := benchCampaign(b)
	b.ResetTimer()
	var shares int
	for i := 0; i < b.N; i++ {
		shares = len(rep.CheckerShares())
	}
	b.StopTimer()
	active := 0
	for _, s := range rep.CheckerShares() {
		if s.FiredRuns > 0 {
			active++
		}
	}
	b.ReportMetric(float64(active), "checkers_active")
	_ = shares
}

// BenchmarkFig9SimultaneousCheckers regenerates the Figure 9
// distribution.
func BenchmarkFig9SimultaneousCheckers(b *testing.B) {
	rep := benchCampaign(b)
	b.ResetTimer()
	var hist []int64
	for i := 0; i < b.N; i++ {
		hist = rep.SimultaneityDistribution()
	}
	b.StopTimer()
	maxK, modeK := 0, 0
	var modeCount int64
	for k := 1; k < len(hist); k++ {
		if hist[k] > 0 {
			maxK = k
		}
		if hist[k] > modeCount {
			modeCount, modeK = hist[k], k
		}
	}
	b.ReportMetric(float64(maxK), "max_simultaneous")
	b.ReportMetric(float64(modeK), "mode_simultaneous")
}

// BenchmarkObs5NonInstantFaults regenerates the Observation 5 counts.
func BenchmarkObs5NonInstantFaults(b *testing.B) {
	rep := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rep.Observation5()
	}
	b.StopTimer()
	obs := rep.Observation5()
	b.ReportMetric(float64(obs.NeverViolated), "never_violated")
	b.ReportMetric(float64(obs.NeverViolatedBenign), "never_violated_benign")
	b.ReportMetric(float64(rep.FalseNegatives(nocalert.MechanismNoCAlert)), "false_negatives")
}

// BenchmarkFig10AreaOverhead regenerates the Figure 10 sweep.
func BenchmarkFig10AreaOverhead(b *testing.B) {
	var sweep []nocalert.HWOverhead
	for i := 0; i < b.N; i++ {
		sweep = nocalert.Fig10Sweep(nil)
	}
	b.StopTimer()
	for _, o := range sweep {
		switch o.Params.VCs {
		case 2:
			b.ReportMetric(o.NoCAlertPct, "nocalert_2vc_%")
			b.ReportMetric(o.DMRPct, "dmr_2vc_%")
		case 8:
			b.ReportMetric(o.NoCAlertPct, "nocalert_8vc_%")
			b.ReportMetric(o.DMRPct, "dmr_8vc_%")
		}
	}
}

// BenchmarkPowerTimingOverhead regenerates the §5.5 power and
// critical-path numbers.
func BenchmarkPowerTimingOverhead(b *testing.B) {
	var pw, cp float64
	for i := 0; i < b.N; i++ {
		_, _, pw = nocalert.PowerOverhead(nocalert.HWDefault(4))
		_, _, cp = nocalert.CriticalPathOverhead(nocalert.HWDefault(4))
	}
	b.StopTimer()
	b.ReportMetric(pw, "power_overhead_%")
	b.ReportMetric(cp, "cpath_overhead_%")
}

// BenchmarkAblationForeverEpoch sweeps ForEVeR's epoch length on a
// fault-free network — the tuning trade-off the paper cites for
// choosing 1,500 cycles.
func BenchmarkAblationForeverEpoch(b *testing.B) {
	falsePositives := 0
	epochs := []int64{50, 100, 200, 400}
	for i := 0; i < b.N; i++ {
		falsePositives = 0
		for _, epoch := range epochs {
			mesh := nocalert.NewMesh(4, 4)
			cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.3, Seed: 3}
			n := nocalert.MustNewNetwork(cfg, nil)
			fv := nocalert.NewForeverMonitor(n.RouterConfig(), nocalert.ForeverOptions{Epoch: epoch})
			n.AttachMonitor(fv)
			n.Run(1500)
			if fv.Detected() {
				falsePositives++
			}
		}
	}
	b.ReportMetric(float64(falsePositives), "epochs_with_faultfree_FP")
}

// BenchmarkCampaignRun measures end-to-end campaign throughput on the
// 4×4/160-fault bench campaign: one full Run (golden warmup + one
// forked run per fault) per iteration. The custom metrics are the
// repo's campaign-performance baseline (EXPERIMENTS.md, "Campaign
// performance"): faults/sec and ns/fault are wall-clock throughput,
// allocs/fault is the per-fork allocation bill the clone arenas keep
// flat.
func BenchmarkCampaignRun(b *testing.B) {
	mesh := nocalert.NewMesh(4, 4)
	rc := nocalert.DefaultRouterConfig(mesh)
	params := nocalert.FaultParamsFor(&rc)
	faults := nocalert.SampleFaults(params, benchFaults, 5, benchInject)
	opts := nocalert.CampaignOptions{
		Sim:           nocalert.SimConfig{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   benchInject,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Forever:       nocalert.ForeverOptions{Epoch: 400, HopLatency: 1},
		Faults:        faults,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nocalert.RunCampaign(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N * len(faults))
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(total/sec, "faults/sec")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/fault")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/fault")
}

// --- micro-benchmarks of the substrate ---

// BenchmarkNetworkStep8x8 measures one cycle of the paper-scale mesh at
// the evaluation load, fault-free, without monitors.
func BenchmarkNetworkStep8x8(b *testing.B) {
	mesh := nocalert.NewMesh(8, 8)
	cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.1, Seed: 1}
	n := nocalert.MustNewNetwork(cfg, nil)
	n.Run(2000) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStepWithCheckers measures the same cycle with the
// full NoCAlert engine attached — the simulation-side analogue of the
// paper's "checkers are transparent to operation" claim.
func BenchmarkNetworkStepWithCheckers(b *testing.B) {
	mesh := nocalert.NewMesh(8, 8)
	cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.1, Seed: 1}
	n := nocalert.MustNewNetwork(cfg, nil)
	n.AttachMonitor(nocalert.NewEngine(n.RouterConfig(), nocalert.EngineOptions{}))
	n.Run(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkClone measures the campaign's fork primitive.
func BenchmarkNetworkClone(b *testing.B) {
	mesh := nocalert.NewMesh(8, 8)
	cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.1, Seed: 1}
	n := nocalert.MustNewNetwork(cfg, nil)
	n.Run(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Clone(nil)
	}
}

// BenchmarkGoldenCompare measures the classification step.
func BenchmarkGoldenCompare(b *testing.B) {
	mesh := nocalert.NewMesh(4, 4)
	cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.15, Seed: 1}
	n := nocalert.MustNewNetwork(cfg, nil)
	n.Run(2000)
	n.Drain(8000)
	g := golden.FromEjections(n.Ejections(), 0)
	f := golden.FromEjections(n.Ejections(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := golden.Compare(g, f, true)
		if !v.OK() {
			b.Fatal("identical logs judged malicious")
		}
	}
}

// BenchmarkFaultSiteEnumeration measures the fault-model enumerator at
// paper scale.
func BenchmarkFaultSiteEnumeration(b *testing.B) {
	rc := nocalert.DefaultRouterConfig(nocalert.NewMesh(8, 8))
	params := nocalert.FaultParamsFor(&rc)
	for i := 0; i < b.N; i++ {
		_ = params.EnumerateSites()
	}
}
