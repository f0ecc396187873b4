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
	"nocalert/internal/trace"
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

// exitOf is the exit path one run's counts record.
func exitOf(c RunCounts) ExitPath {
	if c.FastPathHits+c.ReconvergedHits > 0 {
		return ExitReconverged
	}
	return ExitFull
}

// TestFastPathMatchesSlowPathOnIdleSite injects a fault at a site the
// idle network never consults and checks the fast-path result is
// byte-identical to the one the full-simulation reference gives. The
// same site under a permanent fault never fires either, but its plane
// never goes quiescent: that run ends ExitFull and is no fast path.
func TestFastPathMatchesSlowPathOnIdleSite(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	transient := idleRCFault(t, &rc, 50)
	permanent := transient
	permanent.Type = fault.Permanent
	faults := []fault.Fault{transient, permanent}
	exits := map[fault.Type]ExitPath{}
	opts := Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0, Seed: 2},
		InjectCycle:   50,
		PostInjectRun: 200,
		DrainDeadline: 2000,
		Forever:       forever.Options{Epoch: 200, HopLatency: 1},
		Faults:        faults,
		Exec:          Exec{Workers: 1},
		OnResult: func(rec *trace.RunRecord, c RunCounts, _ float64) {
			exits[faults[rec.Index].Type] = exitOf(c)
		},
	}

	fastRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fastRep.Results[0].FastPath || exits[fault.Transient] != ExitReconverged || fastRep.ReconvergedHits != 0 {
		t.Fatalf("unfired transient: fast_path %t, exit %v, %d reconverged hits: want the fast path, ExitReconverged and none",
			fastRep.Results[0].FastPath, exits[fault.Transient], fastRep.ReconvergedHits)
	}
	if fastRep.Results[1].FastPath || exits[fault.Permanent] != ExitFull || fastRep.FastPathHits != 1 {
		t.Fatalf("unfired permanent: fast_path %t, exit %v, %d fast-path hits: want no fast path, ExitFull and one hit (the transient's)",
			fastRep.Results[1].FastPath, exits[fault.Permanent], fastRep.FastPathHits)
	}
	opts.OnResult = nil

	opts.FullSim = true
	slowRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if slowRep.FastPathHits != 0 {
		t.Fatalf("FastPathHits = %d under FullSim, want 0", slowRep.FastPathHits)
	}
	for i, sr := range slowRep.Results {
		if sr.Fired {
			t.Fatalf("idle-site %s fault fired; the test premise is broken", sr.FaultType)
		}
		if !sameRun(fastRep.Results[i], sr) {
			t.Fatalf("%s: default result differs from the full-simulation one:\nfast: %+v\nslow: %+v",
				sr.FaultType, fastRep.Results[i], sr)
		}
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
	if fastRep.FastPathHits == 0 || fastRep.ReconvergedHits == 0 {
		t.Fatalf("%d fast-path and %d reconverged runs; the test premise is broken", fastRep.FastPathHits, fastRep.ReconvergedHits)
	}
	// A run whose fault fired is never on the fast path, however it ends;
	// every unfired one is.
	unfired := 0
	for i, r := range fastRep.Results {
		if r.FastPath == r.Fired {
			t.Errorf("run %d: fired %t but fast_path %t", i, r.Fired, r.FastPath)
		}
		if !r.Fired {
			unfired++
		}
	}
	if unfired != fastRep.FastPathHits {
		t.Errorf("%d unfired runs but %d fast-path hits", unfired, fastRep.FastPathHits)
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
		Exec:          Exec{Workers: 1, Context: ctx},
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
