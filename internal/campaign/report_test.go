package campaign

import (
	"strings"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/golden"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// fabricated builds a report from hand-written results so aggregation
// math can be pinned without running campaigns.
func fabricated() *Report {
	rc := router.Default(topology.NewMesh(4, 4))
	bad := golden.Verdict{Dropped: 1}
	return &Report{
		Opts: Options{InjectCycle: 100, Sim: sim.Config{Router: rc, InjectionRate: 0.1}},
		Results: []RunResult{
			{ // TP, instant, two checkers in the first cycle
				Detected: true, DetectCycle: 100, Latency: 0, Outcome: TruePositive,
				CautiousDetected: true, CautiousLatency: 0, CautiousOutcome: TruePositive,
				ForeverDetected: true, ForeverLatency: 1400, ForeverOutcome: TruePositive,
				Verdict:            bad,
				CheckersFired:      []core.CheckerID{4, 17},
				FirstCycleCheckers: []core.CheckerID{4, 17},
			},
			{ // FP, low-risk only → cautious TN
				Detected: true, DetectCycle: 105, Latency: 5, Outcome: FalsePositive,
				CautiousDetected: false, CautiousLatency: -1, CautiousOutcome: TrueNegative,
				ForeverDetected: false, ForeverLatency: -1, ForeverOutcome: TrueNegative,
				CheckersFired:      []core.CheckerID{1},
				FirstCycleCheckers: []core.CheckerID{1},
			},
			{ // TN all around
				Outcome: TrueNegative, CautiousOutcome: TrueNegative, ForeverOutcome: TrueNegative,
				Latency: -1, CautiousLatency: -1, ForeverLatency: -1,
			},
			{ // TP, delayed
				Detected: true, DetectCycle: 110, Latency: 10, Outcome: TruePositive,
				CautiousDetected: true, CautiousLatency: 10, CautiousOutcome: TruePositive,
				ForeverDetected: true, ForeverLatency: 2900, ForeverOutcome: TruePositive,
				Verdict:            bad,
				CheckersFired:      []core.CheckerID{24},
				FirstCycleCheckers: []core.CheckerID{24},
			},
		},
	}
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
