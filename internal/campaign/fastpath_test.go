package campaign

import (
	"context"
	"reflect"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// idleRCFault returns a transient fault on an RC destination-wire site.
// With zero injected traffic no VC ever enters the routing state, so
// the RC unit is never consulted and the fault provably cannot fire —
// the canonical fast-path candidate.
func idleRCFault(t *testing.T, rc *router.Config, cycle int64) fault.Fault {
	t.Helper()
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	for _, s := range params.EnumerateSites() {
		if s.Kind == fault.RCInDestX {
			return fault.Fault{Site: s, Bit: 0, Cycle: cycle, Type: fault.Transient}
		}
	}
	t.Fatal("no RC site found")
	return fault.Fault{}
}

// TestFastPathMatchesSlowPathOnIdleSite injects a fault at a site the
// idle network never consults and checks the early-exit result is
// byte-identical to the one the full-simulation reference gives.
func TestFastPathMatchesSlowPathOnIdleSite(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	opts := Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0, Seed: 2},
		InjectCycle:   50,
		PostInjectRun: 200,
		DrainDeadline: 2000,
		Forever:       forever.Options{Epoch: 200, HopLatency: 1},
		Faults:        []fault.Fault{idleRCFault(t, &rc, 50)},
		Workers:       1,
	}

	fastRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.FastPathHits != 1 {
		t.Fatalf("FastPathHits = %d, want 1 (idle-site fault must take the fast path)", fastRep.FastPathHits)
	}

	opts.FullSim = true
	slowRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if slowRep.FastPathHits != 0 {
		t.Fatalf("FastPathHits = %d under FullSim, want 0", slowRep.FastPathHits)
	}
	if slowRep.Results[0].Fired {
		t.Fatal("idle-site fault fired; the test premise is broken")
	}
	if !sameRun(fastRep.Results[0], slowRep.Results[0]) {
		t.Fatalf("fast-path result differs from slow-path result:\nfast: %+v\nslow: %+v",
			fastRep.Results[0], slowRep.Results[0])
	}
}

// TestFastPathBitIdenticalCampaign runs the same loaded campaign by
// default and under FullSim and requires identical classification for
// every fault — the acceptance bar for the optimization.
func TestFastPathBitIdenticalCampaign(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, 60, 7, 150)
	opts := Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   150,
		PostInjectRun: 300,
		DrainDeadline: 4000,
		Forever:       forever.Options{Epoch: 300, HopLatency: 1},
		Faults:        faults,
	}

	fastRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.FastPathHits == 0 {
		t.Fatal("no run took the fast path; the test premise is broken")
	}
	opts.FullSim = true
	slowRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fastRep.Results {
		fr, sr := fastRep.Results[i], slowRep.Results[i]
		if !sameRun(fr, sr) {
			t.Fatalf("run %d differs between fast and slow paths:\nfast: %+v\nslow: %+v", i, fr, sr)
		}
	}
	t.Logf("fast-path hits: %d of %d runs", fastRep.FastPathHits, len(fastRep.Results))
}

// TestProgressCallback checks the callback fires once per run, with
// monotonically increasing counts ending at the total.
func TestProgressCallback(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, 12, 9, 50)

	var calls []int
	_, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.1, Seed: 4},
		InjectCycle:   50,
		PostInjectRun: 150,
		DrainDeadline: 2000,
		Forever:       forever.Options{Epoch: 200, HopLatency: 1},
		Faults:        faults,
		Progress: func(done, total int) {
			if total != len(faults) {
				t.Errorf("Progress total = %d, want %d", total, len(faults))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(faults) {
		t.Fatalf("Progress called %d times, want %d", len(calls), len(faults))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("Progress done sequence %v not monotone", calls)
		}
	}
}

// TestContextCancellation checks a cancelled context aborts the
// campaign with its error instead of running every fault.
func TestContextCancellation(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, 50, 9, 50)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.1, Seed: 4},
		InjectCycle:   50,
		PostInjectRun: 150,
		DrainDeadline: 2000,
		Forever:       forever.Options{Epoch: 200, HopLatency: 1},
		Faults:        faults,
		Workers:       1,
		Context:       ctx,
	})
	if err != context.Canceled {
		t.Fatalf("Run with cancelled context returned %v, want context.Canceled", err)
	}
}

// TestSampleFaultsSparseDistinct checks the sparse sampler (which no
// longer materializes the full fault population) returns n distinct,
// in-range faults deterministically.
func TestSampleFaultsSparseDistinct(t *testing.T) {
	params := fault.Params{Mesh: topology.NewMesh(8, 8), VCs: 4, BufDepth: 5}
	a := SampleFaults(params, 300, 42, 100)
	b := SampleFaults(params, 300, 42, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sparse SampleFaults is not deterministic in seed")
	}
	if len(a) != 300 {
		t.Fatalf("got %d faults, want 300", len(a))
	}
	seen := map[fault.Fault]bool{}
	for _, f := range a {
		if f.Bit < 0 || f.Bit >= f.Site.Width {
			t.Fatalf("fault %v has out-of-range bit", &f)
		}
		if f.Cycle != 100 || f.Type != fault.Transient {
			t.Fatalf("fault %v has wrong cycle or type", &f)
		}
		if seen[f] {
			t.Fatalf("duplicate fault %v", &f)
		}
		seen[f] = true
	}
	if c := SampleFaults(params, 300, 43, 100); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
}
