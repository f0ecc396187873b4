package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/topology"
)

// diffPair builds two networks of the same configuration and seed, one
// per sweep engine, each attached to its own clone of the plane.
func diffPair(t *testing.T, w, h int, rate float64, seed uint64, plane *fault.Plane) (ref, soa *Network) {
	t.Helper()
	return diffPairOf(t, Config{Router: router.Default(topology.NewMesh(w, h)), InjectionRate: rate, Seed: seed}, plane)
}

// diffPairOf is diffPair for any configuration.
func diffPairOf(t *testing.T, cfg Config, plane *fault.Plane) (ref, soa *Network) {
	t.Helper()
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
		requireKeptMasks(t, "reference engine", ref)
		requireKeptMasks(t, "SoA engine", soa)
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

// requireKeptMasks holds the activity masks every router of n keeps in its
// signal record as it writes it — the ones the checkers' sweeps walk — to
// the masks RecomputeMasks derives from the record's fields.
func requireKeptMasks(t *testing.T, what string, n *Network) {
	t.Helper()
	for _, r := range n.routers {
		s := r.Signals()
		c := *s
		c.RecomputeMasks()
		kept := [...]bitvec.Vec{s.Granted, s.Arbiters, s.RCPorts, s.XbarCols, s.ReadPorts}
		want := [...]bitvec.Vec{c.Granted, c.Arbiters, c.RCPorts, c.XbarCols, c.ReadPorts}
		if kept != want || s.Pre.Active != c.Pre.Active {
			t.Fatalf("%s: cycle %d router %d: kept masks (granted, arbiters, RC, columns, reads) %v, active %v; the record says %v, %v",
				what, s.Cycle, r.ID(), kept, s.Pre.Active, want, c.Pre.Active)
		}
	}
}

// preReader is a monitor that does nothing but stand for a reader of the
// pre-cycle snapshot — what any monitor that is not a SignalsOnly is taken
// for — through every clone: the fast engine takes snapshots only while
// one is attached.
type preReader struct{ BaseMonitor }

func (preReader) CloneMonitor() Monitor { return preReader{} }

// stepPreLockstep steps the reference-engine network ref and the
// fast-engine network fast n cycles and holds, cycle for cycle, the
// snapshot of every router fast stepped to ref's (fast skips inert
// routers, whose records are then stale; ref steps them all), and the
// state fingerprints to each other. fast must carry a reader of snapshots.
func stepPreLockstep(t *testing.T, what string, ref, fast *Network, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ref.Step()
		fast.Step()
		requireKeptMasks(t, what+", reference engine", ref)
		requireKeptMasks(t, what+", fast engine", fast)
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
			fast.AttachMonitor(preReader{})
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

// armedPlane draws a plane that stays armed, on three or more routers: a
// permanent fault on a credit counter (the register a quiet output's
// fault fires through the pre-cycle consult alone), a periodic
// intermittent and a transient on two other routers, then extra faults of
// random type anywhere. Per-router liveness makes the three hosts differ
// from each other and from the rest of the mesh on almost every cycle.
func armedPlane(p fault.Params, g *rng.PCG, extra int, cycle int64) *fault.Plane {
	sites := p.EnumerateSites()
	hosts := map[int]bool{}
	draw := func(ok func(fault.Site) bool) fault.Site {
		for {
			if s := sites[g.Intn(len(sites))]; !hosts[s.Router] && ok(s) {
				hosts[s.Router] = true
				return s
			}
		}
	}
	anywhere := func(fault.Site) bool { return true }
	at := func(s fault.Site, ft fault.Type) fault.Fault {
		return fault.Fault{Site: s, Bit: g.Intn(s.Width), Cycle: cycle + int64(g.Intn(50)), Type: ft}
	}
	perm := at(draw(func(s fault.Site) bool { return s.Kind == fault.CreditCountReg }), fault.Permanent)
	inter := at(draw(anywhere), fault.Intermittent)
	inter.Period = int64(2 + g.Intn(30))
	inter.Duty = 1 + int64(g.Intn(int(inter.Period)))
	faults := []fault.Fault{perm, inter, at(draw(anywhere), fault.Transient)}
	faults = append(faults, samplePlane(p, g, extra, cycle).Faults()...)
	return fault.NewPlane(faults...)
}

// callbackTape is a monitor that writes every callback down, values and
// all, so that two engines can be held to showing their monitors the same
// thing. A RouterCycle whose record says nothing at all — no active VC in
// the snapshot, no signal — is left out: leaving those calls out is the
// one difference the inert skip makes to a monitor, and every monitor is
// vacuous on such a record.
type callbackTape struct {
	lines []string
}

func (m *callbackTape) RouterCycle(_ *router.Router, s *router.Signals) {
	if !vacuous(s) {
		m.lines = append(m.lines, fmt.Sprintf("router %d cycle %d: %s", s.Router, s.Cycle, signalText(s)))
	}
}

// vacuous reports whether the record is a freshly reset one but for whose
// it is and the snapshot entries behind an all-clear Pre.Active: every
// field signalText renders is zero or empty.
func vacuous(s *router.Signals) bool {
	var none router.Signals
	return len(s.RCExecs)+len(s.VAAssigns)+len(s.SALatches)+len(s.Arrivals)+len(s.Departures) == 0 &&
		s.Pre.Active == none.Pre.Active && s.RCDone == none.RCDone &&
		s.VA1 == none.VA1 && s.SA1 == none.SA1 && s.VA2 == none.VA2 && s.SA2 == none.SA2 && s.Granted == 0 &&
		s.XbarCol == none.XbarCol && s.XbarRows == 0 && s.XbarIn == 0 && s.XbarOut == 0 && s.XbarSpecNull == 0 &&
		s.Reads == none.Reads && s.CreditsIn == none.CreditsIn
}

// signalText renders everything a signal record says beyond whose it is,
// the flits by value. The snapshot entries are requirePreEqual's.
func signalText(s *router.Signals) string {
	var b strings.Builder
	fmt.Fprint(&b, s.Pre.Active, s.RCExecs, s.RCDone, s.VA1, s.SA1, s.VA2, s.SA2, s.Granted, s.VAAssigns, s.SALatches,
		s.XbarCol, s.XbarRows, s.XbarIn, s.XbarOut, s.XbarSpecNull, s.Reads, s.CreditsIn)
	for _, a := range s.Arrivals {
		fmt.Fprint(&b, " arr ", a.Port, a.Kind, a.VCField, a.Strobe, *a.Flit, a.Targets)
	}
	for _, d := range s.Departures {
		fmt.Fprint(&b, " dep ", d.OutPort, d.OutVC, d.InPort, d.Garbage)
		if d.Flit != nil {
			fmt.Fprint(&b, *d.Flit)
		}
	}
	return b.String()
}

func (m *callbackTape) PacketInjected(cycle int64, node int, p *flit.Packet) {
	m.lines = append(m.lines, fmt.Sprint("inject ", cycle, node, *p))
}

func (m *callbackTape) FlitEjected(cycle int64, node int, f *flit.Flit) {
	m.lines = append(m.lines, fmt.Sprint("eject ", cycle, node, *f))
}

func (m *callbackTape) EndCycle(cycle int64) {
	m.lines = append(m.lines, fmt.Sprint("end ", cycle))
}

// TestEngineLockstepArmedPlanes holds the fast engine to the reference
// engine under planes that never close, on three or more routers: the
// routers that host a fault keep the reference sweep, the full snapshot
// fill and every consult from their fault's onset on, every other router
// takes the fast sweep or is skipped while idle. Cycle for cycle through
// the window, the drain and 2000 cycles of a drained (or wedged) mesh:
// the snapshot of every router the fast engine stepped, the state
// fingerprint, every monitor callback with its values, and at the end
// the cycle each fault first fired on and the ejection log.
func TestEngineLockstepArmedPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	for _, tc := range []struct {
		w, h  int
		rate  float64
		iters int
	}{
		{4, 4, 0.12, 2},
		{8, 8, 0.05, 1},
	} {
		mesh := topology.NewMesh(tc.w, tc.h)
		p := fault.Params{Mesh: mesh, VCs: 4, BufDepth: router.Default(mesh).BufDepth}
		for it := 0; it < tc.iters; it++ {
			t.Run(fmt.Sprintf("%dx%d/plane%02d", tc.w, tc.h, it), func(t *testing.T) {
				g := rng.New(uint64(700+it), 9)
				plane := armedPlane(p, g, it%3, 60)
				ref, fast := diffPair(t, tc.w, tc.h, tc.rate, uint64(it)+31, plane)
				var refTape, fastTape callbackTape
				ref.AttachMonitor(&refTape)
				fast.AttachMonitor(&fastTape)
				skipped := 0
				run := func(what string, n int) {
					t.Helper()
					for i := 0; i < n; i++ {
						stepPreLockstep(t, what, ref, fast, 1)
						if !slices.Equal(refTape.lines, fastTape.lines) {
							t.Fatalf("%s: cycle %d: the engines' monitors were shown different things:\nreference: %q\n     fast: %q",
								what, ref.Cycle()-1, refTape.lines, fastTape.lines)
						}
						refTape.lines, fastTape.lines = refTape.lines[:0], fastTape.lines[:0]
						skipped += len(fast.routers) - len(fast.steppedScratch)
					}
				}
				run("window", 300)
				ref.StopInjection()
				fast.StopInjection()
				run("drain", 400)
				skipped = 0
				run("drained", 2000)
				if skipped == 0 {
					t.Error("the fast engine skipped no router in 2000 drained cycles under an armed plane")
				}
				for i := range plane.Faults() {
					if a, b := ref.plane.FiredAt(i), fast.plane.FiredAt(i); a != b {
						t.Errorf("fault %d (%v) fired at cycle %d under the reference engine, %d under the fast one", i, &plane.Faults()[i], a, b)
					}
				}
				if ref.plane.FiredAt(0) < 0 {
					t.Errorf("the permanent credit-counter fault %v never fired", &plane.Faults()[0])
				}
				if !ejectionsEqual(ref.Ejections(), fast.Ejections()) {
					t.Fatal("engines produced different ejection logs")
				}
			})
		}
	}
}

// TestEngineLockstepRouterVariants holds the fast engine to the reference
// engine on the router variants the default mesh does not build —
// speculative switch allocation, non-atomic buffers, two VCs, West-First
// routing — fault-free and under a plane armed on three or more routers
// (armedPlane): through the window and the drain, cycle for cycle, every
// stepped router's whole signal record and the set of routers stepped, every
// monitor callback with its values, the fingerprints and every fold rebuilt
// (awakePair.step), and at the end the cycle each fault first fired on and
// the ejection logs. These are the records whose ports and VCs a fast sweep
// visits selectively (router.Evaluate).
func TestEngineLockstepRouterVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	for i, v := range []struct {
		name string
		mut  func(*router.Config)
	}{
		{"speculative", func(c *router.Config) { c.Speculative = true }},
		{"non-atomic", func(c *router.Config) { c.AtomicVC = false }},
		{"2-vc", func(c *router.Config) { c.VCs = 2 }},
		{"west-first", func(c *router.Config) { c.Alg = routing.WestFirst{} }},
	} {
		for _, armed := range []bool{false, true} {
			name := v.name + "/fault-free"
			if armed {
				name = v.name + "/armed"
			}
			t.Run(name, func(t *testing.T) {
				rc := router.Default(mesh)
				v.mut(&rc)
				var plane *fault.Plane
				if armed {
					plane = armedPlane(fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}, rng.New(uint64(900+i), 9), 1, 60)
				}
				ref, fast := diffPairOf(t, Config{Router: rc, InjectionRate: 0.12, Seed: uint64(41 + i)}, plane)
				p := newAwakePair(ref, fast)
				p.step(t, "window", 300)
				ref.StopInjection()
				fast.StopInjection()
				p.step(t, "drain", 300)
				if ref.FlitsEjected() == 0 {
					t.Fatal("no flit was ejected")
				}
				for i := range plane.Faults() {
					if a, b := ref.plane.FiredAt(i), fast.plane.FiredAt(i); a != b {
						t.Errorf("fault %d (%v) fired at cycle %d under the reference engine, %d under the fast one", i, &plane.Faults()[i], a, b)
					}
				}
				if !ejectionsEqual(ref.Ejections(), fast.Ejections()) {
					t.Fatal("engines produced different ejection logs")
				}
			})
		}
	}
}

// steppedLog is a monitor that notes which routers it was shown, cycle
// by cycle.
type steppedLog struct {
	BaseMonitor
	ids []int
}

func (m *steppedLog) RouterCycle(r *router.Router, _ *router.Signals) { m.ids = append(m.ids, r.ID()) }

// TestArmedFaultCostsItsRouter counts: with one permanent fault on a
// drained 8×8 mesh the fast engine steps — and shows its monitors —
// exactly the router that hosts the fault, every cycle from the fault's
// onset on and nothing before it; the reference engine steps all 64. The
// fault sits on the credit counter of an output nobody uses, so what
// marks it fired, on its onset cycle under both engines, is the stepped
// router's pre-cycle consult.
func TestArmedFaultCostsItsRouter(t *testing.T) {
	const host, onset = 17, 700
	site := fault.Site{Router: host, Kind: fault.CreditCountReg, Port: int(topology.East), VC: 2, Width: 3}
	plane := fault.NewPlane(fault.Fault{Site: site, Bit: 1, Cycle: onset, Type: fault.Permanent})
	ref, fast := diffPair(t, 8, 8, 0.05, 3, plane)
	var refLog, fastLog steppedLog
	ref.AttachMonitor(&refLog)
	fast.AttachMonitor(&fastLog)
	for _, n := range []*Network{ref, fast} {
		n.Run(300)
		if !n.Drain(200) {
			t.Fatalf("the mesh did not drain by cycle %d", n.Cycle())
		}
		n.Run(onset - 50 - n.Cycle()) // the last credits home
	}
	for ref.Cycle() < onset+200 {
		refLog.ids, fastLog.ids = refLog.ids[:0], fastLog.ids[:0]
		c := ref.Cycle()
		ref.Step()
		fast.Step()
		if len(refLog.ids) != 64 {
			t.Fatalf("cycle %d: the reference engine showed its monitor %d routers, want 64", c, len(refLog.ids))
		}
		want := []int{host}
		if c < onset {
			want = nil
		}
		if !slices.Equal(fastLog.ids, want) {
			t.Fatalf("cycle %d (fault armed from %d on): the fast engine showed its monitor routers %v, want %v", c, onset, fastLog.ids, want)
		}
		if rf, ff := ref.Fingerprint(), fast.Fingerprint(); rf != ff {
			t.Fatalf("cycle %d: engines diverged (reference %#x, fast %#x)", c, rf, ff)
		}
	}
	for _, n := range []*Network{ref, fast} {
		if got := n.plane.FiredAt(0); got != onset {
			t.Errorf("the idle credit-counter fault fired at cycle %d, want its onset %d", got, onset)
		}
	}
}

// awakePair is a reference-engine network and an awake-set one held to it
// cycle for cycle, each with a tape of what its monitors are shown.
type awakePair struct {
	ref, fast         *Network
	refTape, fastTape *callbackTape
}

// newAwakePair attaches a fresh tape to each network (a clone drops its
// original's: tapes are not cloneable). The tape reads everything, so fast
// takes every snapshot.
func newAwakePair(ref, fast *Network) *awakePair {
	p := &awakePair{ref: ref, fast: fast, refTape: &callbackTape{}, fastTape: &callbackTape{}}
	ref.AttachMonitor(p.refTape)
	fast.AttachMonitor(p.fastTape)
	return p
}

// fork returns the pair of copies one clone operation makes of the two
// networks, each under a clone of its own plane.
func (p *awakePair) fork(clone func(n *Network, plane *fault.Plane) *Network) *awakePair {
	return newAwakePair(asReference(clone(p.ref, p.ref.plane.Clone())), clone(p.fast, p.fast.plane.Clone()))
}

// has reports whether node i is in the set.
func (s nodeSet) has(i int) bool { return s[i>>6]>>uint(i&63)&1 != 0 }

// asleep reports whether the fast network's active sets are empty.
func (p *awakePair) asleep() bool {
	for w := range p.fast.awake {
		if p.fast.awake[w]|p.fast.niAwake[w] != 0 {
			return false
		}
	}
	return true
}

// step steps both networks n cycles. Cycle for cycle: the routers fast
// steps are the ones the mesh-polling engine stepped — not Inert at entry,
// or inside their own fault window — and every one's whole signal record
// is the reference engine's, which steps them all; the monitors were shown
// the same, value for value; the state fingerprints agree, and every
// node's fold is the one rebuilt with its caches thrown away; and at the
// boundary the active sets are exactly the routers that are not Inert and
// the NIs that are not idle (DESIGN.md §3.2). It returns how many router
// evaluations fast ran.
func (p *awakePair) step(t *testing.T, what string, n int) (evaluated int) {
	t.Helper()
	ref, fast := p.ref, p.fast
	var want, got []int
	for i := 0; i < n; i++ {
		c := fast.cycle
		want = want[:0]
		for id, r := range fast.routers {
			if !r.Inert() || fast.plane.LiveFor(c, id) {
				want = append(want, id)
			}
		}
		ref.Step()
		fast.Step()
		requireKeptMasks(t, what+", reference engine", ref)
		requireKeptMasks(t, what+", fast engine", fast)
		if len(ref.steppedScratch) != len(ref.routers) {
			t.Fatalf("%s: cycle %d: the reference engine stepped %d routers of %d", what, c, len(ref.steppedScratch), len(ref.routers))
		}
		got = got[:0]
		for _, r := range fast.steppedScratch {
			got = append(got, r.ID())
			requirePreEqual(t, what, r.Signals(), ref.routers[r.ID()].Signals())
			if a, b := signalText(r.Signals()), signalText(ref.routers[r.ID()].Signals()); a != b {
				t.Fatalf("%s: cycle %d router %d: signal record %s, the reference engine has %s", what, c, r.ID(), a, b)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: cycle %d: stepped routers %v; %v were not inert, or live, at entry", what, c, got, want)
		}
		evaluated += len(got)
		if !slices.Equal(p.refTape.lines, p.fastTape.lines) {
			t.Fatalf("%s: cycle %d: the engines' monitors were shown different things:\nreference: %q\n     fast: %q",
				what, c, p.refTape.lines, p.fastTape.lines)
		}
		p.refTape.lines, p.fastTape.lines = p.refTape.lines[:0], p.fastTape.lines[:0]
		if rf, ff := ref.Fingerprint(), fast.Fingerprint(); rf != ff {
			t.Fatalf("%s: cycle %d: engines diverged (reference %#x, fast %#x)", what, c, rf, ff)
		}
		// The fingerprints just taken filled every fold cache: what the
		// sleeping nodes keep of them over the cycles to come is held to the
		// rebuild too.
		requireFoldsRebuilt(t, what+", reference engine", ref, allNodes(ref))
		requireFoldsRebuilt(t, what+", fast engine", fast, allNodes(fast))
		for id, r := range fast.routers {
			if a, ni := fast.awake.has(id), fast.niAwake.has(id); a == r.Inert() || ni == fast.nis[id].idle() {
				t.Fatalf("%s: boundary %d node %d: router awake=%t inert=%t, NI awake=%t idle=%t",
					what, c+1, id, a, r.Inert(), ni, fast.nis[id].idle())
			}
		}
	}
	return evaluated
}

// drain stops injection and steps until the whole mesh is asleep.
func (p *awakePair) drain(t *testing.T, what string) {
	t.Helper()
	p.ref.StopInjection()
	p.fast.StopInjection()
	for i := 0; !p.asleep(); i++ {
		if i == 1000 {
			t.Fatalf("%s: the mesh is not asleep %d cycles after injection stopped", what, i)
		}
		p.step(t, what, 1)
	}
	if n := p.step(t, what+", asleep", 20); n != 0 {
		t.Fatalf("%s: %d router evaluations in 20 cycles of a sleeping mesh", what, n)
	}
}

// TestAwakeSetLockstep holds the awake-set engine — Step visits the
// routers and NIs in its active sets and no other — to the reference
// engine, which steps every router every cycle, through everything that
// writes nodes behind the sets' back or wakes a sleeping node: Clone,
// CloneInto into a fresh and into a stale target, the restore of an old
// snapshot over a network that has run on, a drain to a mesh that is all
// asleep, a packet injected into it (whose way across wakes a sleeping
// NI, and sleeping routers by each of the four stagings: the NI's flit,
// link flits, link credits and the ejecting NI's credit), and a fault that
// comes alive in a sleeping router. CloneLazyInto and MaterializeAll are
// TestAwakeSetAfterFrontier's.
func TestAwakeSetLockstep(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	// The mesh is asleep from about cycle 480 on. Two faults wait for it
	// there, in routers nothing else will wake: an upset that turns an idle
	// VC of router 5 active at cycle 700, and a permanent fault from cycle
	// 720 on a credit counter of router 10 (it fires through the woken
	// router's pre-cycle consult alone, TestIdleCreditFaultFires' way).
	upset := fault.Fault{Site: fault.Site{Router: 5, Kind: fault.VCStateReg, Port: int(topology.West), VC: 1, Width: 3}, Bit: 0, Cycle: 700, Type: fault.Transient}
	perm := fault.Fault{Site: fault.Site{Router: 10, Kind: fault.CreditCountReg, Port: int(topology.East), VC: 2, Width: 3}, Bit: 1, Cycle: 720, Type: fault.Permanent}
	for _, tc := range []struct {
		name  string
		plane *fault.Plane
	}{
		{"fault-free", nil},
		{"faults-in-sleeping-routers", fault.NewPlane(upset, perm)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, fast := diffPair(t, mesh.W, mesh.H, 0.12, 3, tc.plane)
			p := newAwakePair(ref, fast)
			p.step(t, "from cycle 0", 150)

			fresh := func(n *Network, plane *fault.Plane) *Network { return n.CloneInto(nil, plane) }
			p.fork(func(n *Network, plane *fault.Plane) *Network { return n.Clone(plane) }).step(t, "Clone", 60)
			c, snap := p.fork(fresh), p.fork(fresh)
			c.step(t, "CloneInto a fresh target", 60)
			p.step(t, "original, forked from", 100)
			// c's sets are those of its own cycle 210; what arrives is the
			// original's cycle 250, then the snapshot's cycle 150.
			c = p.fork(func(n *Network, plane *fault.Plane) *Network { return n.CloneInto(c.pick(n), plane) })
			c.step(t, "CloneInto a stale target", 80)
			c = snap.fork(func(n *Network, plane *fault.Plane) *Network { return n.CloneInto(c.pick(n), plane) })
			c.step(t, "snapshot restored", 80)
			c.drain(t, "restored snapshot, draining")

			p.drain(t, "draining")
			for p.fast.cycle < 690 {
				p.step(t, "asleep", 1)
			}
			woken := p.step(t, "fault windows opening", 60)
			if tc.plane == nil && woken != 0 || tc.plane != nil && woken < 40 {
				t.Fatalf("%d router evaluations in cycles 690 to 750 of a sleeping mesh", woken)
			}
			if tc.plane != nil {
				for i, ft := range tc.plane.Faults() {
					if a, b := p.ref.plane.FiredAt(i), p.fast.plane.FiredAt(i); a != b || a != ft.Cycle {
						t.Errorf("fault %v fired at cycle %d under the reference engine, %d under the fast one, want its onset", &ft, a, b)
					}
				}
			}

			// One packet across the sleeping mesh, corner to corner.
			before := p.fast.FlitsEjected()
			p.ref.InjectPacket(0, 15, 0)
			p.fast.InjectPacket(0, 15, 0)
			if n := p.step(t, "packet into a sleeping mesh", 80); n == 0 {
				t.Fatal("the injected packet woke no router")
			}
			if got := p.fast.FlitsEjected() - before; got != int64(p.fast.rcfg.PacketLen(0)) {
				t.Fatalf("%d flits of the injected packet were ejected, want %d", got, p.fast.rcfg.PacketLen(0))
			}
			if !ejectionsEqual(p.ref.Ejections(), p.fast.Ejections()) {
				t.Fatal("engines produced different ejection logs")
			}
		})
	}
}

// pick returns the pair's network of n's engine: the clone target that
// goes with n.
func (p *awakePair) pick(n *Network) *Network {
	if n.soaOff {
		return p.ref
	}
	return p.fast
}

// TestAwakeSetAfterFrontier: a network a Frontier has stepped is, once
// MaterializeAll has made it whole, a network Step may step: the active
// sets are taken anew, and the run goes on in lockstep with the reference
// engine's full simulation of it. Two ways there. A lazy fork over a
// target whose sets describe another run's nodes, the frontier copying the
// few nodes a transient fault's cone comes to and MaterializeAll the rest.
// And a whole network with sets of its own, in use, every node a member
// under a permanent fault from the fork on, so that nothing is ever copied
// and only the frontier's having stepped says the sets are out of date.
func TestAwakeSetAfterFrontier(t *testing.T) {
	const fork, window, stepped = 120, 200, 90
	cfg := cfg44(0.12, 5)
	site := fault.Site{Router: 6, Kind: fault.VCStateReg, Port: int(topology.North), VC: 0, Width: 3}
	for _, tc := range []struct {
		name string
		lazy bool
		typ  fault.Type
	}{
		{"lazy fork, cone of a transient", true, fault.Transient},
		{"whole network, every node a member", false, fault.Permanent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plane := fault.NewPlane(fault.Fault{Site: site, Bit: 1, Cycle: fork + 4, Type: tc.typ})
			gold := MustNew(cfg, nil)
			gold.Run(fork - 1)
			// One cycle short of the fork: the copies step there themselves,
			// which leaves each with active sets of its own, in use.
			target := junkNetwork(cfg).CloneInto(nil, nil)
			ref := asReference(gold.CloneInto(nil, plane.Clone()))
			whole := gold.CloneInto(nil, plane.Clone())
			for _, n := range []*Network{gold, target, ref, whole} {
				n.Step()
			}
			snapshot := gold.CloneInto(nil, nil)
			gold.StartRecording(window)
			gold.Run(window)
			rec := gold.StopRecording()

			fn, seeds := whole, make([]int, len(whole.routers))
			for i := range seeds {
				seeds[i] = i
			}
			if tc.lazy {
				fn, seeds = snapshot.CloneLazyInto(target, plane.Clone()), []int{site.Router}
			}
			fr := NewFrontier(fn, rec, seeds)
			for i := 0; i < stepped; i++ {
				ref.Step()
				fr.Step()
			}
			if tc.lazy == (fr.Copied() == 0) || fr.Copied() == len(fn.routers) {
				t.Fatalf("the frontier copied %d nodes of %d", fr.Copied(), len(fn.routers))
			}
			at := snapshot.CloneInto(nil, nil)
			at.Run(stepped)
			fr.MaterializeAll(at)
			if !tc.lazy && fr.Copied() != 0 {
				t.Fatalf("MaterializeAll copied %d nodes into a network whose every node was a member", fr.Copied())
			}
			newAwakePair(ref, fn).step(t, "after MaterializeAll", 150)
		})
	}
}
