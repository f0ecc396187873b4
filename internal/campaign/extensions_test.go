package campaign

import (
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestDoubleFaultCampaign exercises the multi-fault extension: pairs of
// simultaneous single-bit transients. The 0%-false-negative property
// must survive — two faults can only produce more illegal outputs, not
// fewer.
func TestDoubleFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	singles := SampleFaults(params, 120, 77, 300)
	var groups [][]fault.Fault
	for i := 0; i+1 < len(singles); i += 2 {
		groups = append(groups, []fault.Fault{singles[i], singles[i+1]})
	}
	rep, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Forever:       forever.Options{Epoch: 400},
		FaultGroups:   groups,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(groups) {
		t.Fatalf("ran %d of %d groups", len(rep.Results), len(groups))
	}
	if fn := rep.FalseNegatives(NoCAlert); fn != 0 {
		t.Fatalf("double faults produced %d NoCAlert false negatives", fn)
	}
	if rep.MaliciousCount() == 0 {
		t.Fatal("no double fault violated correctness; sample too benign to be meaningful")
	}
}

// TestIntermittentFaultCampaign: intermittent faults (duty-cycled
// upsets) behave between the transient and permanent extremes and are
// all caught when they do damage.
func TestIntermittentFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}

	var faults []fault.Fault
	for _, s := range params.EnumerateSites() {
		if s.Kind != fault.SA1Gnt && s.Kind != fault.BufWrite {
			continue
		}
		faults = append(faults, fault.Fault{
			Site: s, Bit: 0, Cycle: 300, Type: fault.Intermittent, Period: 40, Duty: 4,
		})
	}
	rep, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 9},
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Forever:       forever.Options{Epoch: 400},
		Faults:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fn := rep.FalseNegatives(NoCAlert); fn != 0 {
		t.Fatalf("intermittent faults produced %d false negatives", fn)
	}
	det := 0
	for _, r := range rep.Results {
		if r.Outcome.Detected() {
			det++
		}
	}
	if det == 0 {
		t.Fatal("no intermittent fault detected; scenario not exercised")
	}
	// An intermittent upset keeps re-asserting: detection latency for
	// at least one run should be 0 (caught in an active duty window).
	cdf := rep.LatencyCDF(NoCAlert)
	if cdf.N() > 0 && cdf.Percentile(0) != 0 {
		t.Errorf("no intermittent fault caught instantly (min latency %d)", cdf.Percentile(0))
	}
}
