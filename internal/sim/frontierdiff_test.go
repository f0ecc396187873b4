package sim

import (
	"fmt"
	"slices"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// frontierLockstep is the differential gate for the divergence-frontier
// engine. It builds a golden network, runs it to the fork boundary,
// forks two faulty copies under clones of the same plane — one stepped
// as a full simulation, one driven by a Frontier over the golden
// transcript — then records the golden window and, injection off, the
// golden drain until the network settles, and steps both faulty runs in
// lockstep through the whole shape of a campaign run: the window, the
// drain to the reference run's quiet or frozen boundary, and horizon
// cycles past it (lockstepHorizon for most callers). At every cycle
// boundary:
//
//   - a frontier member's per-node state fold must equal the reference
//     run's fold for the same node (the member is simulating live, so
//     it must track the full simulation exactly), and
//   - a node outside the frontier must, in the REFERENCE run, still
//     hold golden's live state (its fold equals the transcript's; the
//     residue a retired member keeps is not folded, router.FoldState) —
//     i.e. the frontier never misses a divergence, which is the whole
//     soundness claim;
//
// and the pre-cycle snapshot of every router the frontier stepped — a
// member since the fork, or one that joined by replayNode's catch-up —
// must be the one a third, reference-engine copy of the faulty run fills
// in full every cycle (soadiff_test.go: the sparse fill's oracle);
//
// plus the global counters must match, the frontier's counter guard
// (CountersGolden) must say whether the reference run's flit counters are
// golden's at the boundary, the reference's packet ids must be golden's,
// and once injection is off the
// frontier must answer Quiet as the reference does and its static
// fingerprint must hold still across a step exactly when the
// reference's does (the fast-forward probe's freeze condition). At the
// end the frontier run is materialized from the golden state of that
// boundary (its retired members replayed) and must reach full fingerprint
// and ejection-log identity
// with the reference run, and every fault must have fired first on the
// same cycle in all three runs (an idle host router's consults are the
// stepper's to keep: it may skip an inert member only outside the
// member's own fault window).
//
// The frontier's network is the fork that defers its nodes
// (CloneLazyInto), taken over a network that holds another traffic
// process's state in every node: the frontier must copy each node it
// comes to from the fork point before it reads it, and read no other. A
// frontier over a whole network runs the same code with nothing to copy.
//
// It returns how many nodes joined the frontier after the window end, the
// joins that replay a node across the end of injection, how many joined it
// a second time, from the later boundary they had retired at, and — under
// a plane still armed at the end — how many members the frontier carried
// to the end of the horizon and whether the drain ended on a fabric that
// had stopped changing short of quiet.
func frontierLockstep(t *testing.T, cfg Config, plane *fault.Plane, fork, window, horizon int64) (joins lockstepJoins) {
	t.Helper()
	const drainCap = 3000 // a run neither quiet nor frozen by then is livelocked
	gold := MustNew(cfg, nil)
	for gold.Cycle() < fork {
		gold.Step()
	}
	ref := gold.CloneInto(nil, plane.Clone())
	// (From a snapshot of the fork point: gold itself steps on.)
	fn := gold.CloneInto(nil, nil).CloneLazyInto(junkNetwork(cfg).CloneInto(nil, nil), plane.Clone())
	oracle := asReference(gold.CloneInto(nil, plane.Clone()))

	// Every fold golden records is held to the fold rebuilt with the node's
	// caches thrown away, as every member's and every reference node's is
	// below: two cached folds can be stale alike.
	// Golden's counters at every boundary from the fork to where it
	// settled (and, settled, for ever after) are what the frontier's
	// counter guard is held to.
	type counters struct {
		injected, ejected int64
		nextPkt           uint64
	}
	countersOf := func(n *Network) counters { return counters{n.FlitsInjected(), n.FlitsEjected(), n.NextPacketID()} }
	goldAt := []counters{countersOf(gold)}
	gold.StartRecording(int(window))
	for gold.Cycle() < fork+window+drainCap && !gold.rec.settled {
		if gold.Cycle() == fork+window {
			gold.StopInjection()
		}
		gold.Step()
		goldAt = append(goldAt, countersOf(gold))
		requireFoldsRebuilt(t, "golden", gold, allNodes(gold))
	}
	rec := gold.SettleRecording(gold.Cycle())
	if rec == nil {
		t.Fatal("fault-free golden run did not settle")
	}

	var seeds []int
	for _, ft := range plane.Faults() {
		seeds = append(seeds, ft.Site.Router)
	}
	fr := NewFrontier(fn, rec, seeds)

	var refFP, frFP uint64
	wasIn, everIn := make([]bool, len(fn.routers)), make([]bool, len(fn.routers))
	step := func() {
		for _, id := range fr.members {
			if r := fn.routers[id]; r.Stalled() && !r.Inert() && fn.plane.LiveFor(fn.Cycle(), id) {
				joins.liveStalled++
			}
		}
		ref.Step()
		fr.Step()
		oracle.Step()
		for id, in := range fr.inF {
			if in && !wasIn[id] && everIn[id] {
				joins.again++
			}
			if !in && wasIn[id] && !slices.Contains(seeds, id) && asleepAround(ref, id) {
				joins.asleep++
			}
			wasIn[id], everIn[id] = in, everIn[id] || in
		}
		for _, id := range fr.steppedS {
			requirePreEqual(t, "frontier", fn.routers[id].Signals(), oracle.routers[id].Signals())
		}
		tb := ref.Cycle() - 1 // the cycle just stepped
		golden := rec.foldRow(tb)
		requireFoldsRebuilt(t, "frontier", fn, fr.members)
		requireFoldsRebuilt(t, "reference", ref, allNodes(ref))
		for id := range fn.routers {
			if fr.inF[id] {
				if got, want := fn.nodeFold(id), ref.nodeFold(id); got != want {
					t.Fatalf("cycle %d node %d: frontier member diverged from reference (%#x vs %#x)", tb, id, got, want)
				}
			} else if got, want := ref.nodeFold(id), golden[id]; got != want {
				t.Fatalf("cycle %d node %d: reference diverged from golden outside the frontier (%#x vs %#x) — missed join", tb, id, got, want)
			}
		}
		if fn.FlitsInjected() != ref.FlitsInjected() || fn.FlitsEjected() != ref.FlitsEjected() ||
			fn.NextPacketID() != ref.NextPacketID() || fn.PacketsOffered() != ref.PacketsOffered() {
			t.Fatalf("cycle %d: counters diverged (inj %d/%d, ej %d/%d, pkt %d/%d)", tb,
				fn.FlitsInjected(), ref.FlitsInjected(), fn.FlitsEjected(), ref.FlitsEjected(),
				fn.NextPacketID(), ref.NextPacketID())
		}
		goldC, refC := goldAt[min(int(ref.Cycle()-fork), len(goldAt)-1)], countersOf(ref)
		if want := refC.injected == goldC.injected && refC.ejected == goldC.ejected; fr.CountersGolden() != want {
			t.Fatalf("cycle %d: the frontier's counter guard says %t, the reference run's flit counters %+v against golden's %+v say %t",
				tb, fr.CountersGolden(), refC, goldC, want)
		}
		if refC.nextPkt != goldC.nextPkt {
			t.Fatalf("cycle %d: the reference run's packet ids drifted from golden's (next %d vs %d)", tb, refC.nextPkt, goldC.nextPkt)
		}
		if fr.Quiet() != ref.Quiet() {
			t.Fatalf("cycle %d: frontier Quiet() = %t, reference %t", tb, fr.Quiet(), ref.Quiet())
		}
		r, f := ref.StaticFingerprint(), fr.StaticFingerprint()
		if tb > fork && (r == refFP) != (f == frFP) {
			t.Fatalf("cycle %d: reference state held still across the step = %t, frontier's static fingerprint says %t", tb, r == refFP, f == frFP)
		}
		refFP, frFP = r, f
	}

	for i := int64(0); i < window; i++ {
		step()
	}
	windowJoins := fr.Joins()
	ref.StopInjection()
	fn.StopInjection()
	oracle.StopInjection()
	for still := false; !ref.Quiet() && !still && ref.Cycle() < fork+window+drainCap; {
		before := refFP
		step()
		still = refFP == before
		joins.wedged = still && !ref.Quiet()
	}
	// Past the drain boundary, and at least as far as golden itself went:
	// the materialization below needs golden's state at the final cycle.
	for end := max(ref.Cycle()+horizon, gold.Cycle()); ref.Cycle() < end; {
		step()
	}

	if !fn.FaultsQuiescent() {
		joins.held = fr.Size()
	}
	for gold.Cycle() < ref.Cycle() {
		gold.Step()
	}
	fr.MaterializeAll(gold)
	if got, want := fn.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("after materialization: fingerprints differ (%#x vs %#x), frontier peak %d", got, want, fr.Peak())
	}
	for id := range fn.routers {
		if got, want := fn.routers[id].FoldResidue(statehash.Seed), ref.routers[id].FoldResidue(statehash.Seed); got != want {
			t.Fatalf("after materialization: router %d holds another residue than the reference's", id)
		}
	}
	if !ejectionsEqual(fn.Ejections(), ref.Ejections()) {
		t.Fatal("frontier and reference runs produced different ejection logs")
	}
	for i := range plane.Faults() {
		if a, b, c := ref.plane.FiredAt(i), fn.plane.FiredAt(i), oracle.plane.FiredAt(i); a != b || a != c {
			t.Errorf("fault %d (%v) fired at cycle %d on the full mesh, %d on the frontier, %d under the reference engine", i, &plane.Faults()[i], a, b, c)
		}
	}
	joins.late = fr.Joins() - windowJoins
	joins.stalls = fr.StallSkips()
	return joins
}

// lockstepJoins counts the joins of a frontierLockstep run that replay a
// node the hard ways: late, after the window end, across the end of
// injection; again, a node that had been a member and retired. asleep
// counts the members the fault's disturbance had reached (not its hosts)
// that retired into a sleeping neighbourhood: in the full simulation,
// whose Step visits awake nodes only, the retiring node and every
// neighbour of it asleep. Under a plane that never goes
// quiescent, held is the frontier's size at the end of the horizon (its
// members never retire) and wedged whether the drain ended frozen short of
// quiet. stalls is how many member-cycles the frontier skipped as stalled,
// liveStalled how many it stepped although the member was stalled, its
// fault window being open.
type lockstepJoins struct {
	late, again, asleep int64
	held                int
	wedged              bool
	stalls, liveStalled int64
}

// asleepAround reports whether node id and its neighbours are all asleep
// in n, routers and NIs, at a boundary n's Step has left.
func asleepAround(n *Network, id int) bool {
	around := []int{id}
	for d := topology.North; d < topology.Local; d++ {
		if nb, ok := n.mesh.Neighbor(id, d); ok {
			around = append(around, nb)
		}
	}
	for _, i := range around {
		if n.awake.has(i) || n.niAwake.has(i) {
			return false
		}
	}
	return true
}

// junkNetwork returns a network of cfg's geometry that shares no state
// with a run under cfg: another seed, three times the load, a hundred
// cycles in.
func junkNetwork(cfg Config) *Network {
	cfg.Seed, cfg.InjectionRate = cfg.Seed+99, 3*cfg.InjectionRate
	n := MustNew(cfg, nil)
	n.Run(100)
	return n
}

// lockstepHorizon is how far past the drain boundary frontierLockstep's
// callers step unless they are after a long drained stretch.
const lockstepHorizon = 150

// TestFrontierLockstepUnderFaults pins the frontier engine against the
// full simulation under a fixed injected fault plane on all three mesh
// sizes, with the fault window opening shortly after the fork.
func TestFrontierLockstepUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential test in -short mode")
	}
	var lateJoins int64
	for _, tc := range []struct {
		w, h int
		rate float64
	}{
		{4, 4, 0.12},
		{8, 8, 0.05},
		{16, 16, 0.02},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.w, tc.h), func(t *testing.T) {
			p := fault.Params{Mesh: topology.NewMesh(tc.w, tc.h), VCs: 4, BufDepth: router.Default(topology.NewMesh(tc.w, tc.h)).BufDepth}
			g := rng.New(7, 1)
			plane := samplePlane(p, g, 8, 130)
			cfg := Config{Router: router.Default(topology.NewMesh(tc.w, tc.h)), InjectionRate: tc.rate, Seed: 3}
			lateJoins += frontierLockstep(t, cfg, plane, 120, 400, lockstepHorizon).late
		})
	}
	if !t.Failed() && lateJoins == 0 {
		t.Fatal("no node joined a frontier after the window end: the replay across the end of injection went unexercised")
	}
}

// TestFrontierLockstepRandomPlanes fuzzes the frontier engine with
// seeded random fault planes — random sites, bits and temporal types —
// requiring the per-node fold identities and final fingerprint match on
// every iteration. Transient planes exercise retirement (the frontier
// shrinks back once the divergent wave washes out); permanent and
// intermittent planes exercise monotone growth and the missed-join
// detector.
func TestFrontierLockstepRandomPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style differential test in -short mode")
	}
	p := fault.Params{Mesh: topology.NewMesh(4, 4), VCs: 4, BufDepth: router.Default(topology.NewMesh(4, 4)).BufDepth}
	iters := 12
	var lateJoins int64
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("plane%02d", it), func(t *testing.T) {
			g := rng.New(uint64(300+it), 9)
			plane := samplePlane(p, g, 3+it%4, 45)
			cfg := Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.15, Seed: uint64(it) + 11}
			lateJoins += frontierLockstep(t, cfg, plane, 40, 250, lockstepHorizon).late
		})
	}
	if !t.Failed() && lateJoins == 0 {
		t.Fatal("no node joined a frontier after the window end: the replay across the end of injection went unexercised")
	}
}

// FuzzFrontierLockstep lets the fuzzer pick the network (mesh up to 6×6,
// VC count, injection rate, routing algorithm, traffic seed) and up to
// three faults (site, temporal type; bit, strike cycle, period and duty
// derive from the first one's) and holds the frontier to the full
// simulation through window, drain and horizon as frontierLockstep does:
// counters, member folds, missed joins, Quiet, the static fingerprint's
// verdict on every step, and after MaterializeAll the whole fingerprint
// and ejection log. Faults on different routers give every host its own
// liveness window, so the stepper's inert skip is decided router by
// router. The seed corpus below runs under plain `go test`; `make
// fuzz-smoke` searches on from it.
func FuzzFrontierLockstep(f *testing.F) {
	// typ2/typ3: 0 for no such fault, else 1 + its type.
	//    w, h, vcs, rate%, alg, seed, site, bit, type, delay, period, duty, site2, typ2, site3, typ3
	f.Add(uint8(4), uint8(4), uint8(4), uint8(12), uint8(0), uint64(3), uint32(17), uint8(0), uint8(0), uint8(5), uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	f.Add(uint8(6), uint8(6), uint8(2), uint8(8), uint8(1), uint64(11), uint32(901), uint8(2), uint8(0), uint8(31), uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	f.Add(uint8(3), uint8(5), uint8(4), uint8(15), uint8(2), uint64(5), uint32(402), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(8), uint8(10), uint8(0), uint64(7), uint32(77), uint8(3), uint8(2), uint8(12), uint8(9), uint8(4), uint32(0), uint8(0), uint32(0), uint8(0))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(20), uint8(0), uint64(1), uint32(5), uint8(0), uint8(0), uint8(2), uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	f.Add(uint8(6), uint8(1), uint8(4), uint8(5), uint8(1), uint64(9), uint32(1234), uint8(7), uint8(1), uint8(44), uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	// A permanent, a periodic intermittent and a transient fault on three
	// different routers (TestFuzzSeedsSpreadOverRouters holds them to it).
	for _, sd := range armedFuzzSeeds {
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site[0], sd.bit, sd.typ[0], sd.delay, sd.period, sd.duty, sd.site[1], sd.typ[1]+1, sd.site[2], sd.typ[2]+1)
	}
	// One transient fault whose cone shrinks and grows again: a node joins,
	// retires and joins a second time, replayed from the boundary it retired
	// at with its transcript cursors where its first membership left them
	// (TestFuzzSeedsRejoin holds them to it).
	for _, sd := range rejoinFuzzSeeds {
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, uint8(0), sd.delay, uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	}
	// One transient VA2 or SA2 grant fault that wedges a VC: the packet
	// behind it can no longer move, and the members around it stall, the
	// frontier skipping them until something is staged into them — or,
	// under the last entry, until a second fault's window opens on one
	// (TestFuzzSeedsStall holds them to it).
	for _, sd := range stallFuzzSeeds {
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, uint8(0), sd.delay, uint8(0), uint8(0), sd.site2, sd.typ2, uint32(0), uint8(0))
	}
	// One permanent fault whose cone the frontier carries, members never
	// retiring, through the drain — wedged or not — and the horizon, with
	// nodes still joining after the window end
	// (TestFuzzSeedsHoldAPermanentFault holds them to it).
	for _, sd := range permanentFuzzSeeds {
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, uint8(1), sd.delay, uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	}
	// One transient fault on a 6×6 mesh at a 1 % load, where most of the
	// mesh is asleep most of the time: nodes the disturbance reached retire
	// with themselves and every neighbour asleep in the full simulation
	// (TestFuzzSeedRetiresAsleep holds it to it).
	{
		sd := asleepFuzzSeed
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, uint8(0), sd.delay, uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	}
	// Transient flips of vc.route and vc.outvc on a VC that is idle and
	// empty when they strike: residue, which the host retires with at its
	// first look and writes again when the VC takes a packet
	// (TestFuzzSeedsFlipIdleRegisters holds them to it).
	for _, sd := range idleFlipFuzzSeeds {
		f.Add(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, uint8(0), sd.delay, uint8(0), uint8(0), uint32(0), uint8(0), uint32(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, w, h, vcs, ratePct, alg uint8, seed uint64, site uint32, bit, typ, delay, period, duty uint8, site2 uint32, typ2 uint8, site3 uint32, typ3 uint8) {
		fuzzLockstep(t, w, h, vcs, ratePct, alg, seed, site, bit, typ, delay, period, duty, site2, typ2, site3, typ3)
	})
}

// fuzzLockstep is FuzzFrontierLockstep's body: its reading of the fuzzed
// bytes and the lockstep run they describe.
func fuzzLockstep(t *testing.T, w, h, vcs, ratePct, alg uint8, seed uint64, site uint32, bit, typ, delay, period, duty uint8, site2 uint32, typ2 uint8, site3 uint32, typ3 uint8) lockstepJoins {
	{
		cfg, sites := fuzzConfig(w, h, vcs, ratePct, alg, seed)
		const fork, window = fuzzFork, 200
		var faults []fault.Fault
		for k, pick := range []struct {
			site    uint32
			typ     uint8
			present bool
		}{{site, typ, true}, {site2, typ2 - 1, typ2 != 0}, {site3, typ3 - 1, typ3 != 0}} {
			if !pick.present {
				continue
			}
			s := sites[int(pick.site)%len(sites)]
			ft := fault.Fault{Site: s, Bit: int(bit) % s.Width, Cycle: fork + int64((int(delay)+17*k)%50), Type: fault.Type(pick.typ % 3)}
			if ft.Type == fault.Intermittent {
				ft.Period = 2 + int64(period%30)
				ft.Duty = 1 + int64(duty)%ft.Period
			}
			faults = append(faults, ft)
		}
		return frontierLockstep(t, cfg, fault.NewPlane(faults...), fork, window, lockstepHorizon)
	}
}

// fuzzFork is the cycle FuzzFrontierLockstep forks its faulty runs at; a
// fault strikes delay%50 cycles later.
const fuzzFork = 40

// fuzzConfig is FuzzFrontierLockstep's reading of its network bytes: the
// configuration and the fault sites its site bytes index.
func fuzzConfig(w, h, vcs, ratePct, alg uint8, seed uint64) (Config, []fault.Site) {
	mesh, rc := fuzzMesh(w, h, vcs)
	rc.Alg = []routing.Algorithm{routing.XY{}, routing.WestFirst{}, routing.Adaptive{}}[alg%3]
	cfg := Config{Router: rc, InjectionRate: float64(1+ratePct%20) / 100, Seed: seed}
	return cfg, fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}.EnumerateSites()
}

// fuzzMesh is FuzzFrontierLockstep's reading of its mesh and VC bytes.
func fuzzMesh(w, h, vcs uint8) (topology.Mesh, router.Config) {
	mesh := topology.NewMesh(1+int(w)%6, 1+int(h)%6)
	rc := router.Default(mesh)
	rc.VCs = 1 << (vcs % 4) // 1, 2, 4, 8
	return mesh, rc
}

// armedFuzzSeeds are FuzzFrontierLockstep's three-fault corpus entries:
// typ[k] is fault k's type, site[k] its index into the site enumeration.
var armedFuzzSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 [3]uint32
	typ                  [3]uint8
	bit, delay           uint8
	period, duty         uint8
}{
	{w: 3, h: 3, vcs: 2, rate: 12, alg: 0, seed: 3, site: [3]uint32{40, 700, 1500}, typ: [3]uint8{1, 2, 0}, bit: 0, delay: 3, period: 6, duty: 2},
	{w: 5, h: 5, vcs: 1, rate: 7, alg: 1, seed: 13, site: [3]uint32{2100, 90, 1100}, typ: [3]uint8{2, 0, 1}, bit: 1, delay: 20, period: 11, duty: 0},
	{w: 2, h: 4, vcs: 2, rate: 16, alg: 2, seed: 8, site: [3]uint32{600, 1300, 10}, typ: [3]uint8{0, 1, 2}, bit: 2, delay: 45, period: 2, duty: 1},
}

// TestFuzzSeedsSpreadOverRouters keeps the three-fault corpus entries
// what they are there for: one permanent, one periodic intermittent and
// one transient fault, on three different routers.
func TestFuzzSeedsSpreadOverRouters(t *testing.T) {
	for i, sd := range armedFuzzSeeds {
		mesh, rc := fuzzMesh(sd.w, sd.h, sd.vcs)
		sites := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}.EnumerateSites()
		routers, types := map[int]bool{}, map[uint8]bool{}
		for k := range sd.site {
			routers[sites[int(sd.site[k])%len(sites)].Router] = true
			types[sd.typ[k]%3] = true
		}
		if len(routers) != 3 || len(types) != 3 {
			t.Errorf("seed %d: %d distinct routers and %d distinct fault types among its three faults, want 3 and 3", i, len(routers), len(types))
		}
	}
}

// rejoinFuzzSeeds are FuzzFrontierLockstep's single-transient corpus
// entries under which some node joins the frontier twice, one for each
// routing algorithm.
var rejoinFuzzSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 uint32
	bit, delay           uint8
}{
	{w: 2, h: 3, vcs: 0, rate: 15, alg: 0, seed: 49, site: 568, bit: 7, delay: 41},
	{w: 5, h: 5, vcs: 0, rate: 11, alg: 1, seed: 71, site: 2569, bit: 3, delay: 48},
	{w: 4, h: 4, vcs: 1, rate: 14, alg: 2, seed: 83, site: 77, bit: 5, delay: 18},
}

// TestFuzzSeedsRejoin keeps the rejoin corpus entries what they are there
// for: under each, a node that was a member and retired joins again — and
// under some, after the window end as well, replayed across the end of
// injection from a boundary inside the window.
func TestFuzzSeedsRejoin(t *testing.T) {
	var late int64
	for i, sd := range rejoinFuzzSeeds {
		j := fuzzLockstep(t, sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, 0, sd.delay, 0, 0, 0, 0, 0, 0)
		if j.again == 0 {
			t.Errorf("seed %d: no node joined the frontier a second time", i)
		}
		late += j.late
	}
	if late == 0 {
		t.Error("no rejoin corpus entry has a join after the window end")
	}
}

// stallFuzzSeeds are FuzzFrontierLockstep's corpus entries for a wedged
// VC: a transient grant fault of a second-round arbiter, VA2 under XY and
// West-First, SA2 under the adaptive algorithm, on a 4×4 mesh. The last
// adds a second transient fault (typ2 1), a VA2 grant on router 6, which
// strikes 17 cycles after the first, router 6 stalled behind the wedge.
var stallFuzzSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site, site2          uint32
	bit, delay, typ2     uint8
}{
	{w: 3, h: 3, vcs: 2, rate: 12, alg: 0, seed: 1, site: 840, bit: 1, delay: 5},
	{w: 3, h: 3, vcs: 2, rate: 12, alg: 1, seed: 1, site: 1316, bit: 1, delay: 5},
	{w: 3, h: 3, vcs: 2, rate: 12, alg: 2, seed: 2, site: 707, bit: 1, delay: 5},
	{w: 3, h: 3, vcs: 2, rate: 12, alg: 2, seed: 2, site: 707, bit: 1, delay: 5, site2: 806, typ2: 1},
}

// TestFuzzSeedsStall keeps the wedged-VC corpus entries what they are
// there for: each is a VA2 or SA2 grant fault whose drain ends on a fabric
// that has stopped changing short of quiet, under each the frontier
// skipped stalled members, and under the one with a second fault it
// stepped a stalled member whose fault window had opened — held, like
// every entry, to the full simulation cycle by cycle.
func TestFuzzSeedsStall(t *testing.T) {
	for i, sd := range stallFuzzSeeds {
		_, sites := fuzzConfig(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed)
		if k := sites[int(sd.site)%len(sites)].Kind; k != fault.VA2Gnt && k != fault.SA2Gnt {
			t.Errorf("seed %d: a fault on %v, want a VA2 or SA2 grant", i, k)
		}
		j := fuzzLockstep(t, sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, 0, sd.delay, 0, 0, sd.site2, sd.typ2, 0, 0)
		if !j.wedged || j.stalls == 0 {
			t.Errorf("seed %d: drain wedged %t, %d member-cycles skipped as stalled", i, j.wedged, j.stalls)
		}
		if sd.typ2 != 0 && j.liveStalled == 0 {
			t.Errorf("seed %d: the second fault's window opened on no stalled member", i)
		}
	}
}

// asleepFuzzSeed is FuzzFrontierLockstep's corpus entry for a cone among
// sleeping nodes: what the full simulation's active sets must get right
// around it is who the disturbance wakes, and that they go back to sleep.
var asleepFuzzSeed = struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 uint32
	bit, delay           uint8
}{w: 5, h: 5, vcs: 1, rate: 0, alg: 2, seed: 5, site: 2923, bit: 1, delay: 5}

// TestFuzzSeedRetiresAsleep keeps that entry what it is there for: nodes
// that joined the frontier retire into a neighbourhood that is all asleep
// in the full simulation.
func TestFuzzSeedRetiresAsleep(t *testing.T) {
	sd := asleepFuzzSeed
	j := fuzzLockstep(t, sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, 0, sd.delay, 0, 0, 0, 0, 0, 0)
	if j.asleep == 0 {
		t.Error("no member that had joined the frontier retired into a sleeping neighbourhood")
	}
}

// permanentFuzzSeeds are FuzzFrontierLockstep's single-permanent corpus
// entries, one for each routing algorithm: a fault that never goes
// quiescent, whose run stays on the frontier to the end.
var permanentFuzzSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 uint32
	bit, delay           uint8
}{
	{w: 3, h: 3, vcs: 1, rate: 14, alg: 0, seed: 5, site: 1073, bit: 1, delay: 7},
	{w: 4, h: 2, vcs: 2, rate: 10, alg: 1, seed: 21, site: 1961, bit: 1, delay: 7},
	{w: 2, h: 5, vcs: 0, rate: 17, alg: 2, seed: 33, site: 444, bit: 1, delay: 7},
}

// TestFuzzSeedsHoldAPermanentFault keeps the permanent corpus entries what
// they are there for: under each the frontier reaches the end of the
// horizon with a cone of several members and had a node join it after the
// window end; under some the drain ends on a wedged fabric, under others
// on a quiet one.
func TestFuzzSeedsHoldAPermanentFault(t *testing.T) {
	wedged, quiet := 0, 0
	for i, sd := range permanentFuzzSeeds {
		j := fuzzLockstep(t, sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed, sd.site, sd.bit, 1, sd.delay, 0, 0, 0, 0, 0, 0)
		if j.held < 2 || j.late == 0 {
			t.Errorf("seed %d: %d members at the end of the horizon, %d joins after the window end", i, j.held, j.late)
		}
		if j.wedged {
			wedged++
		} else {
			quiet++
		}
	}
	if wedged == 0 || quiet == 0 {
		t.Errorf("%d permanent corpus entries wedge the fabric, %d drain it: want some of each", wedged, quiet)
	}
}

// TestFrontierLockstepArmedPlanes runs frontierLockstep under planes that
// stay armed on three or more routers (armedPlane) and on through 2000
// cycles past the drain boundary: the frontier steps an idle host router
// for its consults and skips every other idle member, the full-mesh
// reference likewise, and the reference-engine oracle steps them all.
func TestFrontierLockstepArmedPlanes(t *testing.T) {
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
				g := rng.New(uint64(900+it), 9)
				plane := armedPlane(p, g, it%3, 130)
				cfg := Config{Router: router.Default(mesh), InjectionRate: tc.rate, Seed: uint64(it) + 41}
				frontierLockstep(t, cfg, plane, 120, 300, 2000)
			})
		}
	}
}

// idleFlipFuzzSeeds are FuzzFrontierLockstep's corpus entries for a
// transient flip of a register that is residue when it strikes
// (router.Router.FoldResidue): the route or output-VC register of a VC that
// is idle and empty.
var idleFlipFuzzSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 uint32
	bit, delay           uint8
}{
	{w: 2, h: 3, vcs: 1, rate: 12, alg: 0, seed: 12, site: 324, bit: 0, delay: 34},
	{w: 4, h: 4, vcs: 1, rate: 10, alg: 2, seed: 26, site: 220, bit: 2, delay: 32},
	{w: 2, h: 4, vcs: 2, rate: 9, alg: 0, seed: 33, site: 319, bit: 0, delay: 31},
}

// TestFuzzSeedsFlipIdleRegisters keeps the idle-flip corpus entries what
// they are there for: each flips vc.route or vc.outvc (both kinds among
// them) of a VC that the fault-free run holds idle and empty at the strike
// and gives a packet before the window ends — so the host's live state
// never leaves golden's, and the register it keeps apart is written again.
func TestFuzzSeedsFlipIdleRegisters(t *testing.T) {
	kinds := map[fault.Kind]bool{}
	for i, sd := range idleFlipFuzzSeeds {
		cfg, sites := fuzzConfig(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed)
		s := sites[int(sd.site)%len(sites)]
		if s.Kind != fault.VCRouteReg && s.Kind != fault.VCOutVCReg {
			t.Errorf("seed %d flips %v, not a route or output-VC register", i, s)
			continue
		}
		kinds[s.Kind] = true
		strike := fuzzFork + int64(sd.delay%50)
		n := MustNew(cfg, nil)
		n.AttachMonitor(preReader{})
		busy := func() bool {
			// A router the cycle did not step is Inert: every VC idle and empty.
			sig := n.Router(s.Router).Signals()
			pre := sig.Pre.In[s.Port][s.VC]
			return sig.Cycle == n.Cycle()-1 && (pre.State != router.VCIdle || pre.BufLen > 0)
		}
		for n.Cycle() <= strike {
			n.Step()
		}
		if busy() {
			t.Errorf("seed %d: %v is busy when it strikes at cycle %d", i, s, strike)
		}
		for n.Cycle() < fuzzFork+200 && !busy() {
			n.Step()
		}
		if !busy() {
			t.Errorf("seed %d: the VC of %v takes no packet in the window", i, s)
		}
	}
	if len(kinds) != 2 {
		t.Errorf("the corpus flips %d register kinds, want vc.route and vc.outvc", len(kinds))
	}
}

// TestMaterializeBesideAChangedMember materializes frontier runs inside the
// window, at every boundary where a node that retired earlier was sent
// something, on the cycle just stepped, by a neighbour that retired or
// joined on that cycle: there the membership the cycle began with and the
// one it ended with disagree about who sent the retired node its inputs.
// MaterializeAll replays such a node over golden's inputs through the last
// cycle, which is what a clean node received, and the network it builds
// must hold the reference run's state, residues included, and ejection log.
// The single transients it runs are the rejoin corpus entries and
// besideRetiredSeeds.
func TestMaterializeBesideAChangedMember(t *testing.T) {
	const window = 200
	var retiredBeside, joinedBeside int
	for i, sd := range append(slices.Clone(rejoinFuzzSeeds), besideRetiredSeeds...) {
		cfg, sites := fuzzConfig(sd.w, sd.h, sd.vcs, sd.rate, sd.alg, sd.seed)
		s := sites[int(sd.site)%len(sites)]
		plane := fault.NewPlane(fault.Fault{Site: s, Bit: int(sd.bit) % s.Width, Cycle: fuzzFork + int64(sd.delay%50), Type: fault.Transient})
		gold := MustNew(cfg, nil)
		for gold.Cycle() < fuzzFork {
			gold.Step()
		}
		forkPt := gold.CloneInto(nil, nil)
		gold.StartRecording(window)
		for gold.Cycle() < fuzzFork+window {
			gold.Step()
		}
		rec := gold.StopRecording()

		// run forks both faulty runs and steps them to boundary end, calling
		// look after every step with the members the cycle began with.
		run := func(end int64, look func(fr *Frontier, was []bool, tb int64)) (*Frontier, *Network, *Network) {
			fn, ref := forkPt.CloneInto(nil, plane.Clone()), forkPt.CloneInto(nil, plane.Clone())
			fr := NewFrontier(fn, rec, []int{s.Router})
			was := make([]bool, len(fn.routers))
			for ref.Cycle() < end {
				copy(was, fr.inF)
				ref.Step()
				fr.Step()
				if look != nil {
					look(fr, was, ref.Cycle()-1)
				}
			}
			return fr, fn, ref
		}
		var at []int64
		run(fuzzFork+window, func(fr *Frontier, was []bool, tb int64) {
			for id, in := range fr.inF {
				if in || !fr.isTracked[id] || fr.validAt[id] > tb {
					continue // a member, never one, or retired on this very cycle
				}
				for d := topology.North; d < topology.Local; d++ {
					nb, ok := fr.n.mesh.Neighbor(id, d)
					if !ok || was[nb] == fr.inF[nb] || !recordedInto(rec, tb, id, d) {
						continue
					}
					if was[nb] {
						retiredBeside++
					} else {
						joinedBeside++
					}
					if len(at) == 0 || at[len(at)-1] != tb+1 {
						at = append(at, tb+1)
					}
				}
			}
		})
		for _, end := range at {
			fr, fn, ref := run(end, nil)
			g := forkPt.CloneInto(nil, nil)
			for g.Cycle() < end {
				g.Step()
			}
			fr.MaterializeAll(g)
			if got, want := fn.Fingerprint(), ref.Fingerprint(); got != want {
				t.Fatalf("seed %d, boundary %d: materialized fingerprint %#x, the reference's %#x", i, end, got, want)
			}
			for id := range fn.routers {
				if fn.routers[id].FoldResidue(statehash.Seed) != ref.routers[id].FoldResidue(statehash.Seed) {
					t.Fatalf("seed %d, boundary %d: materialized router %d holds another residue than the reference's", i, end, id)
				}
			}
			if !ejectionsEqual(fn.Ejections(), ref.Ejections()) {
				t.Fatalf("seed %d, boundary %d: materialized ejection log differs from the reference's", i, end)
			}
		}
	}
	if retiredBeside == 0 || joinedBeside == 0 {
		t.Fatalf("a retired node was sent something by a neighbour retiring %d times, by one joining %d times: want both", retiredBeside, joinedBeside)
	}
}

// besideRetiredSeeds are single transients under which a member that
// retires sends a flit, on the cycle it retires, to a node that had retired
// before it.
var besideRetiredSeeds = []struct {
	w, h, vcs, rate, alg uint8
	seed                 uint64
	site                 uint32
	bit, delay           uint8
}{
	{w: 4, h: 4, vcs: 1, rate: 8, alg: 1, seed: 10, site: 20, bit: 2, delay: 30},
	{w: 4, h: 4, vcs: 2, rate: 14, alg: 2, seed: 26, site: 2404, bit: 2, delay: 38},
	{w: 5, h: 4, vcs: 0, rate: 15, alg: 0, seed: 27, site: 2613, bit: 3, delay: 1},
}

// recordedInto reports whether golden's transcript has a flit or credit
// landing on node id's input port d in cycle tb.
func recordedInto(rec *Recording, tb int64, id int, d topology.Direction) bool {
	var cur cursor
	for _, k := range rec.events(byLinkTo, &cur, tb, id) {
		if topology.Direction(rec.links[k].dstPort) == d {
			return true
		}
	}
	cur = cursor{}
	for _, k := range rec.events(byCreditTo, &cur, tb, id) {
		if topology.Direction(rec.credits[k].dstPort) == d {
			return true
		}
	}
	return false
}
