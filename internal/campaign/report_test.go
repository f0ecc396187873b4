package campaign

import (
	"reflect"
	"strings"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// fabricated builds a report from hand-written records so aggregation
// math can be pinned without running campaigns.
func fabricated() *Report {
	rc := router.Default(topology.NewMesh(4, 4))
	return &Report{
		Opts: Options{InjectCycle: 100, Sim: sim.Config{Router: rc, InjectionRate: 0.1}},
		Results: []trace.RunRecord{
			{ // TP, instant, two checkers in the first cycle
				Malicious: true,
				Outcome:   trace.TruePositive, Latency: 0,
				CautiousOutcome: trace.TruePositive, CautiousLatency: 0,
				ForeverOutcome: trace.TruePositive, ForeverLatency: 1400,
				CheckersFired:      []core.CheckerID{4, 17},
				FirstCycleCheckers: []core.CheckerID{4, 17},
			},
			{ // FP, low-risk only → cautious TN
				Outcome: trace.FalsePositive, Latency: 5,
				CautiousOutcome: trace.TrueNegative, CautiousLatency: -1,
				ForeverOutcome: trace.TrueNegative, ForeverLatency: -1,
				CheckersFired:      []core.CheckerID{1},
				FirstCycleCheckers: []core.CheckerID{1},
			},
			{ // TN all around
				Outcome: trace.TrueNegative, CautiousOutcome: trace.TrueNegative, ForeverOutcome: trace.TrueNegative,
				Latency: -1, CautiousLatency: -1, ForeverLatency: -1,
			},
			{ // TP, delayed
				Malicious: true,
				Outcome:   trace.TruePositive, Latency: 10,
				CautiousOutcome: trace.TruePositive, CautiousLatency: 10,
				ForeverOutcome: trace.TruePositive, ForeverLatency: 2900,
				CheckersFired:      []core.CheckerID{24},
				FirstCycleCheckers: []core.CheckerID{24},
			},
		},
	}
}

// sameRun reports whether two records describe the same run with the
// same result: everything but where and how it ran — its index in its
// campaign, whether the fast path resolved it, its wall time — must match.
func sameRun(a, b trace.RunRecord) bool {
	a.Index, a.FastPath, a.WallSeconds = b.Index, b.FastPath, b.WallSeconds
	return reflect.DeepEqual(a, b)
}

func TestCoverageMath(t *testing.T) {
	r := fabricated()
	c := r.Coverage(NoCAlert)
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 0 {
		t.Fatalf("coverage %+v", c)
	}
	if c.TPPct != 50 || c.FPPct != 25 {
		t.Fatalf("percentages %+v", c)
	}
	cc := r.Coverage(Cautious)
	if cc.FP != 0 || cc.TN != 2 {
		t.Fatalf("cautious coverage %+v", cc)
	}
}

func TestLatencyCDFOnlyTruePositives(t *testing.T) {
	r := fabricated()
	cdf := r.LatencyCDF(NoCAlert)
	if cdf.N() != 2 {
		t.Fatalf("CDF over %d samples, want 2 (TPs only)", cdf.N())
	}
	if cdf.Percentile(0) != 0 || cdf.Max() != 10 {
		t.Fatalf("CDF range [%d,%d]", cdf.Percentile(0), cdf.Max())
	}
}

func TestCheckerSharesWeighting(t *testing.T) {
	r := fabricated()
	shares := map[core.CheckerID]CheckerShare{}
	total := 0.0
	for _, s := range r.CheckerShares() {
		shares[s.Checker] = s
		total += s.SharePct
	}
	// Three detected runs: run 1 splits 1/2+1/2 between 4 and 17, runs
	// 2 and 4 give full weight to 1 and 24. Shares must sum to 100.
	if total < 99.9 || total > 100.1 {
		t.Fatalf("shares sum to %.2f", total)
	}
	if shares[4].SharePct != shares[17].SharePct {
		t.Fatal("co-asserted checkers must split the run's weight")
	}
	if shares[1].SharePct != 2*shares[4].SharePct {
		t.Fatalf("sole checker weight %f vs split %f", shares[1].SharePct, shares[4].SharePct)
	}
	if shares[1].AloneRuns != 1 || shares[4].AloneRuns != 0 {
		t.Fatal("alone-run accounting wrong")
	}
}

func TestSimultaneityDistributionMath(t *testing.T) {
	r := fabricated()
	hist := r.SimultaneityDistribution()
	// Distinct-checker counts per detected run: 2, 1, 1.
	if hist[1] != 2 || hist[2] != 1 {
		t.Fatalf("hist %v", hist)
	}
}

func TestObservation5Math(t *testing.T) {
	r := fabricated()
	o := r.Observation5()
	// Non-instant: the FP (latency 5), the TN (never), the delayed TP.
	if o.NonInstant != 3 || o.NeverViolated != 1 || o.NeverViolatedBenign != 1 || o.LaterViolated != 2 {
		t.Fatalf("obs5 %+v", o)
	}
	if o.LaterCaughtMalicious != 1 {
		t.Fatalf("obs5 malicious %+v", o)
	}
}

func TestWriteHeatmaps(t *testing.T) {
	r := fabricated()
	var sb strings.Builder
	r.WriteHeatmaps(&sb)
	out := sb.String()
	for _, want := range []string{"faults injected", "violations", "assertions", "y=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap output missing %q:\n%s", want, out)
		}
	}
}

func TestRecoveryExposureMath(t *testing.T) {
	r := fabricated()
	// 0.1 flits/node/cycle × 16 nodes = 1.6 flits/cycle.
	na := r.RecoveryExposure(NoCAlert)
	if na.MeanLatency != 5 { // (0+10)/2
		t.Fatalf("mean latency %f", na.MeanLatency)
	}
	if na.MeanFlitsAtRisk != 8 { // 5 × 1.6
		t.Fatalf("mean risk %f", na.MeanFlitsAtRisk)
	}
	fv := r.RecoveryExposure(ForEVeR)
	if fv.MeanLatency != 2150 || fv.MaxFlitsAtRisk != 2900*1.6 {
		t.Fatalf("forever exposure %+v", fv)
	}
}
