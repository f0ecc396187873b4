package campaign

import (
	"bytes"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// goldenOptions builds the golden-fixture campaign (GoldenSpec) as live
// Options with its full 96-fault universe.
func goldenOptions(t *testing.T) Options {
	t.Helper()
	spec := GoldenSpec()
	opts := spec.Options()
	opts.Faults = spec.Universe()
	return opts
}

// TestReconvergenceByteIdentity runs the golden-fixture campaign by
// default and under FullSim and requires the two aggregated JSON reports
// to be byte-for-byte identical — the acceptance bar for the
// optimization: reconvergence may only change how fast a result is
// computed, never the result.
func TestReconvergenceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	withRep, err := Run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	off := goldenOptions(t)
	off.FullSim = true
	withoutRep, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}

	if withoutRep.ReconvergedHits != 0 || withoutRep.FastPathHits != 0 {
		t.Fatalf("%d reconverged and %d fast-path exits under FullSim, want none", withoutRep.ReconvergedHits, withoutRep.FastPathHits)
	}
	if withRep.ReconvergedHits == 0 {
		t.Fatal("golden-fixture campaign produced no reconverged runs; the test premise (masked faults washing out mid-window) is broken")
	}

	var with, without bytes.Buffer
	if err := withRep.WriteJSON(&with); err != nil {
		t.Fatal(err)
	}
	if err := withoutRep.WriteJSON(&without); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(with.Bytes(), without.Bytes()) {
		t.Fatalf("reports differ between the default and FullSim (%d vs %d bytes)", with.Len(), without.Len())
	}
	t.Logf("reconverged runs: %d of %d (fast-path: %d)", withRep.ReconvergedHits, len(withRep.Results), withRep.FastPathHits)
}

// TestReconvergedResultsMatchFullSimulation cross-checks every
// individual result field (not just the aggregated JSON) between the
// default campaign and the full-simulation reference.
func TestReconvergedResultsMatchFullSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	fastRep, err := Run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	off := goldenOptions(t)
	off.FullSim = true
	slowRep, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fastRep.Results {
		fr, sr := fastRep.Results[i], slowRep.Results[i]
		if !sameRun(fr, sr) {
			t.Fatalf("run %d differs between reconvergence and full simulation:\nreconv: %+v\nfull:   %+v", i, fr, sr)
		}
	}
}

// TestQuiescentVsInert pins the fault-plane predicate the reconvergence
// gate relies on: a transient is quiescent once its cycle has passed (it
// can never fire again, whether or not it did), while a permanent fault
// is never quiescent.
func TestQuiescentVsInert(t *testing.T) {
	params := fault.Params{Mesh: topology.NewMesh(2, 2), VCs: 2, BufDepth: 4}
	site := params.EnumerateSites()[0]
	tr := fault.Fault{Site: site, Bit: 0, Cycle: 10, Type: fault.Transient}
	pm := fault.Fault{Site: site, Bit: 0, Cycle: 10, Type: fault.Permanent}

	p := fault.NewPlane(tr)
	if p.Quiescent(10) {
		t.Fatal("transient fault quiescent at its injection cycle")
	}
	if !p.Quiescent(11) {
		t.Fatal("expired transient fault not quiescent")
	}
	if !fault.NewPlane().Quiescent(0) {
		t.Fatal("empty plane not quiescent")
	}
	if fault.NewPlane(pm).Quiescent(1 << 40) {
		t.Fatal("permanent fault reported quiescent")
	}
}

// TestReconvergenceOffGoldenPathUnchanged checks that the golden
// continuation of a FullSim campaign — reconvergence off with every other
// shortcut, stepped with nothing recorded and no engine attached — is the
// one the shortcuts record: at every injection cycle the two artefacts'
// golden logs must judge each other benign and their ForEVeR monitors
// must first flag on the same cycle.
func TestReconvergenceOffGoldenPathUnchanged(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	opts := Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.1, Seed: 5},
		InjectCycle:   100,
		PostInjectRun: 200,
		DrainDeadline: 2500,
		Forever:       forever.Options{Epoch: 250, HopLatency: 1},
		Faults:        SampleFaults(params, 4, 11, 100),
		Workers:       1,
	}
	var golds [2]*Golden
	for i, fullSim := range []bool{false, true} {
		opts.FullSim = fullSim
		o, err := opts.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		golds[i] = builtGolden(t, &o)
	}
	on, off := golds[0], golds[1]
	if len(on.groups) == 0 || len(on.groups) != len(off.groups) {
		t.Fatalf("%d golden groups by default, %d under FullSim", len(on.groups), len(off.groups))
	}
	for c, g := range on.groups {
		a, b := g.gc, off.groups[c].gc
		if a.rec == nil || b.rec != nil {
			t.Errorf("injection cycle %d: transcript recorded by default %t, under FullSim %t", c, a.rec != nil, b.rec != nil)
		}
		if v := golden.Compare(a.goldenLog, b.goldenLog, true); !v.OK() {
			t.Errorf("injection cycle %d: the FullSim golden log against the default's: %+v", c, v)
		}
		if fa, fb := a.gfv.FirstDetectionAfter(c), b.gfv.FirstDetectionAfter(c); fa != fb {
			t.Errorf("injection cycle %d: golden ForEVeR first flags at %d by default, at %d under FullSim", c, fa, fb)
		}
	}
}

// TestReconvergedForeverTailStartsAtReconvergence: a reconverged run whose
// own ForEVeR monitor never flagged takes golden's first flag from the
// reconvergence cycle on. A golden flag between the injection and the
// reconvergence cycle is not one the run raised: it may sit at a node of
// the run's cone, whose counters were the run's own and not golden's.
func TestReconvergedForeverTailStartsAtReconvergence(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	rc := router.Default(mesh)
	opts := forever.Options{Epoch: 8, HopLatency: 1}
	gfv := forever.NewMonitor(&rc, opts)
	// One packet that is never delivered: its destination's counter stays
	// nonzero, and golden's monitor flags the node at every epoch boundary.
	gfv.PacketInjected(0, 0, &flit.Packet{ID: 1, Dest: 5, Length: 1})
	for c := int64(0); c < 40; c++ {
		gfv.EndCycle(c)
	}
	d := gfv.Detections()
	if len(d) < 2 || d[1] <= d[0]+1 {
		t.Fatalf("golden flags at %v: want two, more than a cycle apart", d)
	}
	inject, reconverged := d[0]-1, d[0]+1
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	f := SampleFaults(params, 1, 11, inject)[0]
	fv := forever.NewMonitor(&rc, opts) // the run's: it flagged nothing
	rec := synthesizeReconverged(reconverged, core.NewEngine(&rc, core.Options{}), fv, gfv, fault.NewPlane(f), []fault.Fault{f})
	if !rec.ForeverOutcome.Detected() || rec.ForeverLatency != d[1]-inject {
		t.Fatalf("injected at %d, reconverged at %d, golden flags at %v: ForEVeR %v with latency %d, want golden's flag at %d (latency %d)",
			inject, reconverged, d, rec.ForeverOutcome, rec.ForeverLatency, d[1], d[1]-inject)
	}
}
