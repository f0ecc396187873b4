package sim

import (
	"fmt"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// diffPair builds two networks of the same configuration and seed, one
// per sweep engine, each attached to its own clone of the plane.
func diffPair(t *testing.T, w, h int, rate float64, seed uint64, plane *fault.Plane) (ref, soa *Network) {
	t.Helper()
	cfg := Config{Router: router.Default(topology.NewMesh(w, h)), InjectionRate: rate, Seed: seed}
	cfg.DisableSoA = true
	ref, err := New(cfg, plane.Clone())
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableSoA = false
	soa, err = New(cfg, plane.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return ref, soa
}

// stepLockstep steps both networks n cycles, comparing full state
// fingerprints at every cycle boundary.
func stepLockstep(t *testing.T, ref, soa *Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ref.Step()
		soa.Step()
		if rf, sf := ref.Fingerprint(), soa.Fingerprint(); rf != sf {
			t.Fatalf("cycle %d: engines diverged (reference %#x, SoA %#x)", ref.Cycle(), rf, sf)
		}
	}
	if !ejectionsEqual(ref.Ejections(), soa.Ejections()) {
		t.Fatal("engines produced different ejection logs")
	}
}

// samplePlane draws k single-bit faults from the full site population
// using the given generator stream.
func samplePlane(p fault.Params, g *rng.PCG, k int, cycle int64) *fault.Plane {
	sites := p.EnumerateSites()
	faults := make([]fault.Fault, 0, k)
	for i := 0; i < k; i++ {
		s := sites[g.Intn(len(sites))]
		ft := fault.Type(g.Intn(3))
		f := fault.Fault{Site: s, Bit: g.Intn(s.Width), Cycle: cycle + int64(g.Intn(50)), Type: ft}
		if ft == fault.Intermittent {
			f.Period = int64(2 + g.Intn(30))
			f.Duty = 1 + int64(g.Intn(int(f.Period)))
		}
		faults = append(faults, f)
	}
	return fault.NewPlane(faults...)
}

// TestEngineLockstepUnderFaults is the differential gate for the two
// sweep engines: a reference-engine network and a SoA-engine network
// with identical configuration, workload and fault plane must hold
// identical state fingerprints at every single cycle boundary — through
// warmup, live fault windows (where the SoA engine must disable its
// shortcuts), the post-fault wake, and drain. Any sweep-order or
// skip-condition bug that lets the engines read or write one register
// differently surfaces as a first-divergence cycle here.
func TestEngineLockstepUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	for _, tc := range []struct {
		w, h int
		rate float64
	}{
		{4, 4, 0.12},
		{8, 8, 0.05},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.w, tc.h), func(t *testing.T) {
			p := fault.Params{Mesh: topology.NewMesh(tc.w, tc.h), VCs: 4, BufDepth: router.Default(topology.NewMesh(tc.w, tc.h)).BufDepth}
			g := rng.New(7, 1)
			plane := samplePlane(p, g, 8, 120)
			ref, soa := diffPair(t, tc.w, tc.h, tc.rate, 3, plane)
			stepLockstep(t, ref, soa, 400)
			ref.StopInjection()
			soa.StopInjection()
			stepLockstep(t, ref, soa, 200)
		})
	}
}

// TestEngineLockstepRandomPlanes fuzzes the engine equivalence with
// seeded random fault planes: each iteration draws a fresh plane
// (random sites — arbiter request/grant vectors included — random bits,
// random temporal types) and a fresh traffic seed, then requires
// per-cycle fingerprint identity. The arbitration sweeps are the
// riskiest surface (the SoA engine iterates masked candidate sets where
// the reference engine scans the full VC range), so a healthy share of
// the population lands on VA/SA request, grant and pointer state.
func TestEngineLockstepRandomPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style differential test in -short mode")
	}
	p := fault.Params{Mesh: topology.NewMesh(4, 4), VCs: 4, BufDepth: router.Default(topology.NewMesh(4, 4)).BufDepth}
	iters := 12
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("plane%02d", it), func(t *testing.T) {
			g := rng.New(uint64(100+it), 9)
			plane := samplePlane(p, g, 4+it%5, 40)
			ref, soa := diffPair(t, 4, 4, 0.15, uint64(it)+11, plane)
			stepLockstep(t, ref, soa, 250)
		})
	}
}

// asReference turns n into a reference-engine network in place, whatever
// it was built or cloned as: every router stepped every cycle, full VC
// sweeps, and the full pre-cycle snapshot fill the fast engine's sparse
// one is held to.
func asReference(n *Network) *Network {
	n.soaOff = true
	for _, r := range n.routers {
		r.SetReferenceSweep(true)
	}
	return n
}

// requirePreEqual compares the pre-cycle snapshots two engines took of
// one router in the cycle both just stepped: every Pre.In entry — the
// free, empty VCs' included, which a sparse fill leaves as they are — and
// the activity masks.
func requirePreEqual(t *testing.T, what string, got, want *router.Signals) {
	t.Helper()
	if got.Cycle != want.Cycle || got.Router != want.Router {
		t.Fatalf("%s: comparing router %d cycle %d with router %d cycle %d", what, got.Router, got.Cycle, want.Router, want.Cycle)
	}
	for p := 0; p < router.P; p++ {
		if got.Pre.Active[p] != want.Pre.Active[p] {
			t.Fatalf("%s: cycle %d router %d port %d: Pre.Active %s, the full fill has %s",
				what, got.Cycle, got.Router, p, got.Pre.Active[p], want.Pre.Active[p])
		}
		for v := range want.Pre.In[p] {
			if got.Pre.In[p][v] != want.Pre.In[p][v] {
				t.Fatalf("%s: cycle %d router %d port %d vc %d: Pre.In %+v, the full fill has %+v",
					what, got.Cycle, got.Router, p, v, got.Pre.In[p][v], want.Pre.In[p][v])
			}
		}
	}
}

// stepPreLockstep steps the reference-engine network ref and the
// fast-engine network fast n cycles and holds, cycle for cycle, the
// snapshot of every router fast stepped to ref's (fast skips inert
// routers, whose records are then stale; ref steps them all), and the
// state fingerprints to each other.
func stepPreLockstep(t *testing.T, what string, ref, fast *Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ref.Step()
		fast.Step()
		for _, r := range fast.steppedScratch {
			requirePreEqual(t, what, r.Signals(), ref.routers[r.ID()].Signals())
		}
		if rf, sf := ref.Fingerprint(), fast.Fingerprint(); rf != sf {
			t.Fatalf("%s: cycle %d: engines diverged (reference %#x, fast %#x)", what, ref.Cycle(), rf, sf)
		}
	}
}

// TestSparseSnapshotMatchesFullFill holds the fast engine's pre-cycle
// snapshot — filled only for the VCs that are occupied or were written
// since the last one — to the reference engine's, which fills every
// entry through the faulted read path every cycle, under seeded random
// fault planes. Even iterations draw one-shot faults only, so the plane
// goes dead and the fast engine returns from full fills to sparse ones
// (the window closing); odd ones mix in permanent and intermittent
// faults, under which every fill is full and what is compared is mostly
// the other half of the snapshot contract: the planes of the two engines
// must have been consulted alike, so their faults fired on the same
// cycles. Each iteration goes through a fork into fresh CloneInto targets
// mid-window, a second fork into the same, by then stale, targets, and
// an inert stretch — injection off until most routers are skipped for
// dozens of cycles, then on again. The frontier's joins (replayNode) are
// held to the same oracle in frontierLockstep.
func TestSparseSnapshotMatchesFullFill(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	p := fault.Params{Mesh: mesh, VCs: 4, BufDepth: router.Default(mesh).BufDepth}
	for it := 0; it < 10; it++ {
		it := it
		t.Run(fmt.Sprintf("plane%02d", it), func(t *testing.T) {
			g := rng.New(uint64(500+it), 9)
			plane := samplePlane(p, g, 4+it%4, 40)
			if it%2 == 0 {
				// One-shot faults only, so the window closes: the sampled
				// ones as transients, and as many again on VC status
				// registers as single-cycle intermittents — read-path
				// corruption, which leaves the snapshot showing for a cycle
				// what the register does not hold.
				faults := plane.Faults()
				for i := range faults {
					faults[i].Type = fault.Transient
				}
				var regs []fault.Site
				for _, s := range p.EnumerateSites() {
					if s.Kind == fault.VCStateReg || s.Kind == fault.VCRouteReg || s.Kind == fault.VCOutVCReg {
						regs = append(regs, s)
					}
				}
				for i, n := 0, len(faults); i < n; i++ {
					s := regs[g.Intn(len(regs))]
					faults = append(faults, fault.Fault{Site: s, Bit: g.Intn(s.Width), Cycle: 40 + int64(g.Intn(50)), Type: fault.Intermittent})
				}
				plane = fault.NewPlane(faults...)
			}
			ref, fast := diffPair(t, 4, 4, 0.15, uint64(it)+21, plane)
			stepPreLockstep(t, "from cycle 0", ref, fast, 60) // into the fault windows

			// Fork mid-window; the forks carry their own planes on.
			refC, fastC := ref.CloneInto(nil, ref.plane.Clone()), fast.CloneInto(nil, fast.plane.Clone())
			stepPreLockstep(t, "fresh fork", refC, fastC, 120)
			stepPreLockstep(t, "originals", ref, fast, 150)
			// Fork again into the used targets, past the transients' window.
			refC, fastC = ref.CloneInto(refC, ref.plane.Clone()), fast.CloneInto(fastC, fast.plane.Clone())
			stepPreLockstep(t, "second fork", refC, fastC, 40)

			for _, n := range []*Network{refC, fastC} {
				n.StopInjection()
			}
			stepPreLockstep(t, "draining", refC, fastC, 150)
			skipped := len(fastC.routers) - len(fastC.steppedScratch)
			for _, n := range []*Network{refC, fastC} {
				n.ResumeInjection()
			}
			stepPreLockstep(t, "woken", refC, fastC, 100)
			if it%2 == 0 && skipped == 0 {
				t.Error("no router was inert at the end of the drain: the inert stretch went unexercised")
			}
			for _, pair := range [][2]*Network{{ref, fast}, {refC, fastC}} {
				for i := range plane.Faults() {
					if a, b := pair[0].plane.FiredAt(i), pair[1].plane.FiredAt(i); a != b {
						t.Errorf("fault %d (%v) fired at cycle %d under the reference engine, %d under the fast one", i, &plane.Faults()[i], a, b)
					}
				}
			}
		})
	}
}
