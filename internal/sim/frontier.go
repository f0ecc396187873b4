package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// Frontier is the divergence-frontier delta engine: it steps a forked
// faulty network by simulating only the nodes a fault's perturbation
// can have reached, replaying everything else from the golden signal
// transcript (see record.go).
//
// The invariant: a node outside the frontier holds golden's live state
// (router.Router.FoldState: all of it but a residue no step reads before
// writing it) of some past boundary (validAt), and every signal it has
// emitted since the fork equals golden's record. That holds inductively
// because influence moves at most one link per cycle: a clean node's
// inputs can only change when a frontier neighbor emits something that
// differs from golden's record for that link — and that comparison is
// exactly the join trigger. The moment a member's outbound flit or
// credit traffic toward a clean node deviates from the record (a
// different value, an extra signal, or a missing one), the target's
// state is materialized by replaying it forward from its valid
// boundary (golden inputs from the record, plus the live divergent
// inputs on the final cycle) and it becomes a member.
//
// Members retire once the fault plane is quiescent and their per-node
// state fold — live state only, then — returns to the recorded golden
// fold for the same boundary; a frontier that shrinks to empty with a
// clean ejection history and golden's flit counters (CountersGolden) IS
// reconvergence: every node holds golden's state, so the run is golden's
// from there on. A member's fold is looked at on a capped exponential
// backoff, not every cycle: equality with golden is absorbing, so a late
// look finds what an early one would have, and until then the member is
// stepped live through cycles that reproduce the record.
//
// The frontier carries a run for as long as the transcript does: through
// the post-injection window, and — over a transcript recorded on through
// the golden drain until it settled — through the faulty run's own drain
// and ForEVeR horizon, however much longer than golden's they are. Quiet
// and StaticFingerprint answer for the whole network what the campaign's
// drain and fast-forward loops ask of a full simulation. The run's
// injection phase must be the transcript's: both stop injecting on the
// same cycle.
//
// A cycle costs the members, not the mesh, and so does the run around it.
// The clean nodes' share of the global counters is read off the
// transcript's running event counts. A member's records, and what its
// neighbours sent it, are read through one cursor per event kind and node
// (Recording.events): every reader asks for one node's events in cycle
// order — a member cycle after cycle, replayNode from the node's valid
// boundary up to the join, a node that rejoins from the later boundary it
// retired at — so a lookup is the step from the last one. The network
// need not hold the nodes the frontier never steps: over a fork that
// deferred its nodes (Network.CloneLazyInto) a node is copied from the
// fork point the first time it is tracked — seeded, or about to be
// replayed into the frontier — and by the invariant above nobody reads a
// node before that: a node that has never been a member has its valid
// boundary at the fork, which is the fork point's copy of it. Over a
// whole network there is nothing to copy, and that is the only
// difference. What the run leaves behind is a difference from golden, not
// a copy of it:
//
//   - The ejection log (Network.Ejections) receives only the ejections of
//     member-cycles that differ from golden's record of that node and
//     cycle, and Replaced lists the recorded ejections they stand in
//     place of. The run's full log is golden's, less Replaced, plus the
//     log; golden.Delta.Compare judges it in that form.
//   - Monitors are shown the routers that were stepped and the ejections
//     at nodes that have been members (live ones while a member, recorded
//     ones after it retired), and every cycle's end. They are never shown
//     a packet generation: the traffic process is fault-independent, so a
//     monitor that counts generations has them all from the golden run.
//     That is exact for NoCAlert's checkers (the golden run is
//     invariant-clean, so clean routers assert nothing) and for a monitor
//     that keeps its end-to-end state per node and implements NodeTracker
//     (ForEVeR), which is told when a node is first shown.
type Frontier struct {
	n   *Network
	rec *Recording

	inF     []bool  // membership at the start of the cycle being stepped
	validAt []int64 // for non-members: boundary their state is golden at
	members []int   // the nodes with inF set, ascending

	// probeAt is the first boundary at which retire looks at a member's
	// fold again, probeGap the backoff that set it (see ProbeBackoffCap).
	probeAt  []int64
	probeGap []int64

	// tracked lists the nodes that have ever been members, in the order
	// they first joined; trackers are the attached monitors told of each.
	tracked   []int
	isTracked []bool
	trackers  []NodeTracker

	// cur holds the transcript cursors, one per view and node (see
	// Recording.events): entry view*nodes+id.
	cur []cursor
	// copied counts the nodes copied into the network (see Copied).
	copied int

	// logBase is how many ejections the network's log held when the
	// frontier took over; replaced are the recorded ejections the log's
	// entries from there on stand in place of (their flits are the
	// transcript's own: read, never written).
	logBase  int
	replaced []Ejection
	// forkInjected and forkEjected are the flit counters at the fork, which
	// are golden's there (see CountersGolden).
	forkInjected, forkEjected int64

	peak   int
	joins  int64
	probes int64
	stalls int64

	// per-cycle scratch
	steppedS  []int
	pendF     []pendFlit
	pendC     []pendCred
	joinList  []int
	ejScratch []*flit.Flit
	backfill  []Ejection
}

// ProbeBackoffCap bounds the exponential backoff between two looks at
// whether a frontier member's state has returned to golden's (its fold
// against the transcript's). Returning is absorbing — once equal, equal
// for good — so a skipped look loses nothing, it only finds the match a
// few cycles later; the backoff keeps a state that never returns from
// paying a full hash every cycle.
const ProbeBackoffCap = 16

// pendFlit is a member's live emission toward a clean node, held until
// the cycle's join decisions are made.
type pendFlit struct {
	src, dst int
	port     topology.Direction
	f        *flit.Flit
	taken    bool // held against golden's record of the link
}

// pendCred is a member's live credit traffic toward a clean node,
// aggregated per link as a VC mask.
type pendCred struct {
	src, dst int
	port     topology.Direction
	mask     uint32
	taken    bool
}

// NewFrontier builds a frontier over n seeded with the given node ids
// (the fault sites). n must stand at the transcript's start boundary —
// the state every node's validAt is pinned to — and rec must be the
// golden transcript of the cycles about to be stepped, stopped. n is a
// whole network (Clone, CloneInto) or one whose nodes the fork deferred
// (CloneLazyInto), which the frontier then copies as it comes to them.
func NewFrontier(n *Network, rec *Recording, seeds []int) *Frontier {
	f := &Frontier{}
	f.Reset(n, rec, seeds)
	return f
}

// Reset makes f a fresh frontier over n, rec and seeds, as NewFrontier
// would build, keeping its allocations: a campaign worker resets one
// frontier for run after run.
func (f *Frontier) Reset(n *Network, rec *Recording, seeds []int) {
	if n.cycle != rec.start {
		panic(fmt.Sprintf("sim: frontier fork at cycle %d does not match transcript start %d", n.cycle, rec.start))
	}
	if rec.by[byGen].off == nil {
		panic("sim: frontier over a transcript that is still recording")
	}
	if n.arena == nil {
		n.arena = &flit.Arena{}
	}
	nodes := len(n.routers)
	f.cur = resized(f.cur, views*nodes)
	f.copied = 0
	f.n, f.rec = n, rec
	f.inF = resized(f.inF, nodes)
	f.isTracked = resized(f.isTracked, nodes)
	f.validAt = resized(f.validAt, nodes)
	f.probeAt = resized(f.probeAt, nodes)
	f.probeGap = resized(f.probeGap, nodes)
	for i := range f.validAt {
		f.validAt[i] = n.cycle
	}
	f.members, f.tracked, f.trackers = f.members[:0], f.tracked[:0], f.trackers[:0]
	f.logBase, f.replaced = len(n.ejections), f.replaced[:0]
	f.forkInjected, f.forkEjected = n.flitsInjected, n.flitsEjected
	f.peak, f.joins, f.probes, f.stalls = 0, 0, 0, 0
	for _, m := range n.monitors {
		if nt, ok := m.(NodeTracker); ok {
			f.trackers = append(f.trackers, nt)
		}
	}
	f.joinList = append(f.joinList[:0], seeds...)
	for _, s := range seeds {
		f.track(s)
	}
	f.admit()
	f.joins = 0 // the seeds were put there, they did not join
}

// resized returns s with length n and every element zero, reallocating
// only when it is too small.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Size returns the current frontier membership count.
func (f *Frontier) Size() int { return len(f.members) }

// Empty reports whether no node is divergent.
func (f *Frontier) Empty() bool { return len(f.members) == 0 }

// Clean reports whether the post-fork ejection history still equals
// golden's, value for value: no member-cycle has differed from the
// record. It never returns to true once false.
func (f *Frontier) Clean() bool {
	return len(f.replaced) == 0 && len(f.n.ejections) == f.logBase
}

// CountersGolden reports whether the run's flit counters are golden's at
// the current boundary. Golden's are the fork's plus the transcript's
// running send and ejection counts (its prefix offsets); the run's are
// what stepNIs advanced them by, the recorded totals corrected by the
// members' live sends and ejections. The packet counter needs no such
// look: stepGeneration advances it by the record's count every cycle and
// a member's generation takes its id from the record (generate), so
// packet ids never drift.
func (f *Frontier) CountersGolden() bool {
	c := min(int(f.n.cycle-f.rec.start), f.rec.Cycles())
	return f.n.flitsInjected == f.forkInjected+int64(f.rec.sendIdx[c]) &&
		f.n.flitsEjected == f.forkEjected+int64(f.rec.ejectIdx[c])
}

// Replaced returns the recorded golden ejections that the entries the
// frontier put in the network's ejection log stand in place of, in
// (cycle, node) order like the log itself. Their flits belong to the
// transcript and must not be written.
func (f *Frontier) Replaced() []Ejection { return f.replaced }

// Peak returns the largest membership the frontier reached.
func (f *Frontier) Peak() int { return f.peak }

// Copied returns how many nodes the frontier has copied into its network:
// over one forked by CloneLazyInto the nodes it has tracked, each fetched
// from the fork point, and over any network the nodes MaterializeAll took
// from the golden network it was given.
func (f *Frontier) Copied() int { return f.copied }

// Joins returns how many times a node joined the frontier (a node that
// retires and diverges again counts once per join).
func (f *Frontier) Joins() int64 { return f.joins }

// RetireProbes returns how many member folds retire has computed.
func (f *Frontier) RetireProbes() int64 { return f.probes }

// StallSkips returns how many member-cycles Step skipped because the member
// was stalled (router.Router.Stalled) and not inert.
func (f *Frontier) StallSkips() int64 { return f.stalls }

// Step simulates one cycle of the faulty network, stepping only
// frontier members and taking every other node's part in it from the
// golden transcript. It mirrors Network.Step phase for phase.
func (f *Frontier) Step() {
	n := f.n
	t := n.cycle
	if !f.rec.covers(t) {
		panic(fmt.Sprintf("sim: frontier stepped to cycle %d outside transcript [%d,%d)", t, f.rec.start, f.rec.start+int64(f.rec.Cycles())))
	}
	if n.injecting != (t < f.rec.injectEnd) {
		panic(fmt.Sprintf("sim: frontier at cycle %d has injection on=%t, the transcript stopped injecting at cycle %d", t, n.injecting, f.rec.injectEnd))
	}

	// The frontier writes nodes without keeping the network's active sets:
	// a Network.Step after it (MaterializeAll's caller) polls them anew.
	n.awakeStale = true

	f.stepGeneration(t)

	// Router pipelines: members only, in ascending node order, with the
	// same inert-router skip Network.Step applies (an inert member
	// outside its own fault window is a provable no-op), and a stalled
	// member skipped as well: outside its fault window it would repeat its
	// last cycle, which changed nothing, and its record would be that
	// cycle's snapshot again. The checkers have made that snapshot's
	// assertions already — or, for a node whose last cycle was replayNode's,
	// the snapshot is golden's, which asserts nothing — and a repeated
	// assertion moves nothing a verdict reads; ForEVeR reads grants, and
	// there are none. Network.Step, the reference, takes no such skip.
	steppedIDs := f.steppedS[:0]
	for _, id := range f.members {
		r := n.routers[id]
		if !n.soaOff {
			inert := r.Inert()
			if (inert || r.Stalled()) && !n.plane.LiveFor(t, id) {
				if !inert {
					f.stalls++
				}
				continue
			}
		}
		r.BeginCycle(t)
		r.Evaluate(t)
		steppedIDs = append(steppedIDs, id)
	}
	f.steppedS = steppedIDs

	f.stepLinks(t, steppedIDs)

	for _, m := range n.monitors {
		for _, id := range steppedIDs {
			r := n.routers[id]
			m.RouterCycle(r, r.Signals())
		}
	}

	f.stepNIs(t)

	for _, m := range n.monitors {
		m.EndCycle(t)
	}
	n.cycle = t + 1

	f.retire(t, false)
	f.admit()
}

// stepGeneration runs the packet-generation phase: members draw their
// traffic RNG live and the counters advance by the cycle's recorded
// total.
func (f *Frontier) stepGeneration(t int64) {
	n := f.n
	if !n.injecting || n.pktProb <= 0 {
		return
	}
	for _, id := range f.members {
		f.generate(id, t)
	}
	lo, hi := f.rec.seg(f.rec.genIdx, t)
	n.nextPkt += uint64(hi - lo)
	n.pktsOffered += int64(hi - lo)
}

// generate draws node id's traffic RNG for cycle s the way Network.Step
// does and queues the packet a hit generates. The generation process is
// fault-independent, so a hit necessarily has a golden record, which
// supplies the packet id the mesh-wide numbering gave it: a miss means
// the transcript and the run disagree about the RNG stream.
func (f *Frontier) generate(id int, s int64) {
	n, ni := f.n, f.n.nis[id]
	if !ni.gen.Bernoulli(n.pktProb) {
		return
	}
	gens := f.events(byGen, s, id)
	if len(gens) == 0 {
		panic(fmt.Sprintf("sim: node %d drew a generation at cycle %d with no golden record", id, s))
	}
	class := n.pickClass(ni.gen)
	ni.enqueue(&flit.Packet{
		ID:         f.rec.gens[gens[0]].id,
		Src:        id,
		Dest:       n.cfg.Pattern.Dest(n.mesh, id, ni.gen),
		Class:      class,
		Length:     n.rcfg.PacketLen(class),
		Payload:    ni.gen.Uint64(),
		InjectedAt: s,
	})
}

// stepLinks runs the link-traversal phase: live delivery between
// members, golden replay from clean neighbours into members, and the
// divergence comparison — every member emission toward a clean node is
// checked against the record, and any deviation (different value, extra
// signal, missing signal) joins the target.
func (f *Frontier) stepLinks(t int64, steppedIDs []int) {
	n, rec := f.n, f.rec
	f.pendF = f.pendF[:0]
	f.pendC = f.pendC[:0]

	for _, id := range steppedIDs {
		r := n.routers[id]
		for _, d := range r.Signals().Departures {
			dir := topology.Direction(d.OutPort)
			if dir == topology.Local {
				n.nis[id].flitArrived(d.Flit, t+1)
				continue
			}
			nb := n.neighbor(id, dir)
			if nb < 0 {
				continue // fault-driven misroute off the fabric
			}
			if f.inF[nb] {
				n.routers[nb].StageArrival(dir.Opposite(), d.Flit)
				continue
			}
			f.pendF = append(f.pendF, pendFlit{src: id, dst: nb, port: dir.Opposite(), f: d.Flit})
		}
		for _, c := range r.Credits() {
			if c.Port == topology.Local {
				n.nis[id].creditArrived(c.VC, t+1)
				continue
			}
			nb := n.neighbor(id, c.Port)
			if nb < 0 {
				continue
			}
			if f.inF[nb] {
				n.routers[nb].StageCredit(c.Port.Opposite(), c.VC)
				continue
			}
			f.addPendCredit(id, nb, c.Port.Opposite(), c.VC)
		}
	}

	// Hold member→clean traffic against the record and collect joins:
	// a recorded emission toward a clean node that the live member did
	// not reproduce value for value (the golden flow the target expected
	// is missing or altered), and a live one the record does not have.
	f.joinList = f.joinList[:0]
	for _, id := range f.members {
		for _, k := range f.events(byLinkFrom, t, id) {
			l := &rec.links[k]
			if dst := int(l.dst); !f.inF[dst] {
				if pf := f.takePendFlit(id, dst); pf == nil || *pf.f != l.flit {
					f.markJoin(dst)
				}
			}
		}
		for _, k := range f.events(byCreditFrom, t, id) {
			c := &rec.credits[k]
			if dst := int(c.dst); !f.inF[dst] {
				if pc := f.takePendCredit(id, dst); pc == nil || pc.mask != c.mask {
					f.markJoin(dst)
				}
			}
		}
		// Golden replay: what its clean neighbours sent this member.
		f.stageRecorded(t, id, false)
	}
	for i := range f.pendF {
		if pf := &f.pendF[i]; !pf.taken {
			f.markJoin(pf.dst)
		}
	}
	for i := range f.pendC {
		if pc := &f.pendC[i]; !pc.taken {
			f.markJoin(pc.dst)
		}
	}

	// Execute the joins: materialize each target by replaying it from
	// its valid boundary. Joins touch only the joining node, so their
	// order is immaterial; admit makes them members once the cycle is
	// over (for the rest of it they are still clean nodes, whose NI
	// effects this cycle equal the record).
	for _, j := range f.joinList {
		f.track(j) // which gives the network the node, if it has yet to
		f.replayNode(j, t, true)
	}
}

// events returns the ids of node id's events of cycle t in one view of
// the transcript, through the frontier's cursor for that view and node.
func (f *Frontier) events(view int, t int64, id int) []int32 {
	return f.rec.events(view, &f.cur[view*len(f.inF)+id], t, id)
}

// takePendFlit returns the live flit src sent toward the clean node dst
// this cycle, once: a second one on the same link finds no record left
// to stand for it and stays untaken.
func (f *Frontier) takePendFlit(src, dst int) *pendFlit {
	for i := range f.pendF {
		if pf := &f.pendF[i]; pf.src == src && pf.dst == dst && !pf.taken {
			pf.taken = true
			return pf
		}
	}
	return nil
}

// takePendCredit is takePendFlit for the live credit mask.
func (f *Frontier) takePendCredit(src, dst int) *pendCred {
	for i := range f.pendC {
		if pc := &f.pendC[i]; pc.src == src && pc.dst == dst && !pc.taken {
			pc.taken = true
			return pc
		}
	}
	return nil
}

// stageRecorded stages into node id what golden recorded its neighbours
// sending it in cycle t: every neighbour's flit and credits, or those of
// the neighbours outside the frontier only. The sender of what lands on
// one of id's ports is the neighbour through that port.
func (f *Frontier) stageRecorded(t int64, id int, fromMembers bool) {
	n, rec := f.n, f.rec
	r := n.routers[id]
	for _, k := range f.events(byLinkTo, t, id) {
		l := &rec.links[k]
		if fromMembers || !f.sentByMember(id, l.dstPort) {
			r.StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
		}
	}
	for _, k := range f.events(byCreditTo, t, id) {
		c := &rec.credits[k]
		if fromMembers || !f.sentByMember(id, c.dstPort) {
			stageCreditMask(r, topology.Direction(c.dstPort), c.mask)
		}
	}
}

// sentByMember reports whether what lands on node id's input port came
// from a frontier member.
func (f *Frontier) sentByMember(id int, port uint8) bool {
	return f.inF[f.n.neighbor(id, topology.Direction(port))]
}

// markJoin queues a node for frontier admission this cycle (idempotent
// within the cycle).
func (f *Frontier) markJoin(id int) {
	if !slices.Contains(f.joinList, id) {
		f.joinList = append(f.joinList, id)
	}
}

// addPendCredit aggregates a member's live credit toward a clean node
// into the per-link VC mask.
func (f *Frontier) addPendCredit(src, dst int, port topology.Direction, vc int) {
	for i := len(f.pendC) - 1; i >= 0; i-- {
		pc := &f.pendC[i]
		if pc.src != src {
			break
		}
		if pc.dst == dst {
			pc.mask |= 1 << uint(vc)
			return
		}
	}
	f.pendC = append(f.pendC, pendCred{src: src, dst: dst, port: port, mask: 1 << uint(vc)})
}

// track notes that node id has been a member, the first time: the
// network is given the node if its fork left it behind, and the tracking
// monitors are told.
func (f *Frontier) track(id int) {
	if f.isTracked[id] {
		return
	}
	f.isTracked[id] = true
	f.tracked = append(f.tracked, id)
	if f.n.copyNode(id) {
		f.copied++
	}
	for _, m := range f.trackers {
		m.TrackNode(id)
	}
}

// stepNIs runs the network-interface phase. Members tick live; where a
// member's ejections differ from golden's record of the cycle they go in
// the log and the record's in Replaced. The clean nodes — including this
// cycle's joiners, whose cycle-t NI effects were computed from
// still-golden state and so equal the record — add the rest of the
// cycle's recorded send and ejection totals to the counters. Monitors
// see the ejections at tracked nodes.
func (f *Frontier) stepNIs(t int64) {
	n, rec := f.n, f.rec
	sLo, sHi := rec.seg(rec.sendIdx, t)
	eLo, eHi := rec.seg(rec.ejectIdx, t)
	injected, ejected := sHi-sLo, eHi-eLo
	for _, id := range f.members {
		f.ejScratch = f.ejScratch[:0]
		if sent, _ := n.nis[id].tickInject(t, n.routers[id], &f.ejScratch); sent {
			injected++
		}
		if len(f.events(bySend, t, id)) > 0 {
			injected-- // the live strobe stands for golden's
		}
		golden := f.events(byEject, t, id)
		ejected += len(f.ejScratch) - len(golden)
		same := len(f.ejScratch) == len(golden)
		for i := 0; same && i < len(golden); i++ {
			same = rec.ejectFlits[golden[i]] == *f.ejScratch[i]
		}
		if !same {
			for _, k := range golden {
				f.replaced = append(f.replaced, Ejection{Node: id, Cycle: t, Flit: &rec.ejectFlits[k]})
			}
			for _, fl := range f.ejScratch {
				n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: fl})
			}
		}
		for _, fl := range f.ejScratch {
			for _, m := range n.monitors {
				m.FlitEjected(t, id, fl)
			}
		}
	}
	n.flitsInjected += int64(injected)
	n.flitsEjected += int64(ejected)
	if len(n.monitors) == 0 || eLo == eHi {
		return
	}
	for _, id := range f.tracked {
		if f.inF[id] {
			continue
		}
		for _, k := range f.events(byEject, t, id) {
			for _, m := range n.monitors {
				m.FlitEjected(t, id, &rec.ejectFlits[k])
			}
		}
	}
}

// retire removes members whose state has returned to golden. Only legal
// once the fault plane is quiescent: from then on the faulty network is
// an unfaulted deterministic system, every fold is of live state (no
// window can open again), and a node whose fold equals the recorded
// golden fold at the same boundary — inputs included, since the fold
// covers staged arrivals and credits — will replay golden's signals
// exactly, whatever its residue holds, until a frontier neighbor diverges
// its inputs again (which is the join trigger). t is the cycle just
// stepped. A member whose fold disagreed is left alone for twice as long
// as the last time, up to ProbeBackoffCap cycles, unless every is set.
func (f *Frontier) retire(t int64, every bool) {
	n := f.n
	if len(f.members) == 0 || !n.FaultsQuiescent() {
		return
	}
	golden := f.rec.foldRow(t)
	kept := f.members[:0]
	for _, id := range f.members {
		if every || t+1 >= f.probeAt[id] {
			f.probes++
			if n.nodeFold(id) == golden[id] {
				f.inF[id] = false
				f.validAt[id] = t + 1
				continue
			}
			f.probeGap[id] = min(2*f.probeGap[id], ProbeBackoffCap)
			f.probeAt[id] = t + 1 + f.probeGap[id]
		}
		kept = append(kept, id)
	}
	f.members = kept
}

// RetireAll looks at every member's fold now, whatever its backoff says,
// and retires those that are back at golden's. At least one cycle must
// have been stepped. The campaign calls it on the last cycle of the
// window, where whether the frontier is empty decides how the run ends.
func (f *Frontier) RetireAll() { f.retire(f.n.cycle-1, true) }

// admit makes the nodes on the join list members: from the next cycle on
// they are stepped live, and retire looks at them at its first chance.
func (f *Frontier) admit() {
	for _, j := range f.joinList {
		if f.inF[j] {
			continue
		}
		f.inF[j] = true
		f.probeAt[j], f.probeGap[j] = 0, 1
		i, _ := slices.BinarySearch(f.members, j)
		f.members = slices.Insert(f.members, i, j)
		f.joins++
	}
	f.joinList = f.joinList[:0]
	f.peak = max(f.peak, len(f.members))
}

// replayNode materializes node id's live state at boundary through+1 by
// replaying cycles [validAt, through] with golden inputs from the
// transcript, drawing its traffic RNG on exactly the cycles golden was
// injecting (a node that joins during the drain may have been valid since
// the window). The node's own Local traffic loops back live; its
// emissions toward neighbors are discarded (their effects are already
// baked into the records the neighbors consumed); monitors see nothing
// (what they are owed of these cycles they catch up on when the node is
// tracked). For a joining node the final cycle's inbound staging overrides
// golden with the live emissions of the cycle's members — the divergent
// signals that triggered the join; any other node received golden's inputs
// on every cycle.
func (f *Frontier) replayNode(id int, through int64, joining bool) {
	n := f.n
	ni := n.nis[id]
	r := n.routers[id]
	for s := f.validAt[id]; s <= through; s++ {
		if s < f.rec.injectEnd && n.pktProb > 0 {
			f.generate(id, s)
		}
		// Golden skipped the router on the cycles it was inert (the skip
		// Network.Step and Step take), and so does its replay.
		if n.soaOff || !r.Inert() || n.plane.LiveFor(s, id) {
			r.BeginCycle(s)
			r.Evaluate(s)
			for _, d := range r.Signals().Departures {
				if topology.Direction(d.OutPort) == topology.Local {
					ni.flitArrived(d.Flit, s+1)
				}
			}
			for _, c := range r.Credits() {
				if c.Port == topology.Local {
					ni.creditArrived(c.VC, s+1)
				}
			}
		}
		// Golden inputs from every neighbour; on a joiner's final cycle
		// from the clean ones only, and from members whatever they
		// actually emitted, which is what diverged.
		diverged := joining && s == through
		f.stageRecorded(s, id, !diverged)
		if diverged {
			for i := range f.pendF {
				pf := &f.pendF[i]
				if pf.dst == id {
					r.StageArrival(pf.port, pf.f)
				}
			}
			for i := range f.pendC {
				pc := &f.pendC[i]
				if pc.dst == id {
					stageCreditMask(r, pc.port, pc.mask)
				}
			}
		}
		f.ejScratch = f.ejScratch[:0]
		ni.tickInject(s, r, &f.ejScratch)
		// Replayed ejections and send strobes are discarded: they were
		// counted from the records when cycle s completed.
	}
}

// Quiet is Network.Quiet for the run the frontier stands for: the fabric
// is empty by the live counters, every member's NI is idle, and golden
// recorded every other NI idle at this boundary (its count of busy NIs is
// all members). At least one cycle must have been stepped (the rows are
// per stepped cycle).
func (f *Frontier) Quiet() bool {
	n := f.n
	if n.InFlight() > 0 {
		return false
	}
	t := n.cycle - 1
	busyClean := int(f.rec.busyN[f.rec.row(t)])
	row := f.rec.busyRow(t)
	for _, id := range f.members {
		if n.nis[id].busy() {
			return false
		}
		busyClean -= int(row[id/64] >> uint(id%64) & 1)
	}
	return busyClean == 0
}

// StaticFingerprint stands in for Network.StaticFingerprint: two
// consecutive boundaries agree iff no mutable state of the run changed
// across the step. It folds the live counters and a digest of one state
// fold per node — a member's live one, anyone else's as golden recorded
// it at this boundary, which by the frontier invariant is the fold of the
// state a full simulation would hold there. The digest is the recorded
// row's with the members' terms exchanged, so a node that joins or
// retires between the two boundaries changes where its fold is read
// from, not the value. (Network.StaticFingerprint on a frontier's
// network would hash the stale, constant state of the nodes outside it
// and freeze falsely.) Like Quiet it needs one stepped cycle.
func (f *Frontier) StaticFingerprint() uint64 {
	n := f.n
	t := n.cycle - 1
	sum := f.rec.foldSum[f.rec.row(t)]
	golden := f.rec.foldRow(t)
	for _, id := range f.members {
		sum += foldTerm(id, n.nodeFold(id)) - foldTerm(id, golden[id])
	}
	return statehash.Fold(n.foldCounters(statehash.Seed), sum)
}

// MaterializeAll turns the frontier's network back into an ordinary full
// simulation at the current boundary. Every node that was never a member
// is cloned from wend, the golden network at that boundary — legal because
// such a node's state and inputs are golden's by the frontier invariant. A
// node that retired holds golden's live state at its valid boundary and a
// residue of its own, which golden's copy would lose: it is replayed from
// there over golden's inputs on every cycle through the last — a clean node
// received exactly those, or it would have joined — whoever was a member
// when the last cycle began and whoever is one now. Members keep their live
// (divergent) state, and the counters were maintained cycle by cycle. The
// ejection log is filled in to the full one (golden's recorded ejections,
// less Replaced, around what the log held; the recorded flits are shared
// with the transcript, not copied), and the tracking monitors are told of
// every node, since Network.Step shows them all. The frontier is spent
// afterwards. No campaign run needs this: it is how tests and probes turn
// a frontier run back into a network they can fingerprint.
func (f *Frontier) MaterializeAll(wend *Network) {
	n, rec := f.n, f.rec
	if wend.cycle != n.cycle {
		panic(fmt.Sprintf("sim: materialize from golden boundary %d at live cycle %d", wend.cycle, n.cycle))
	}
	n.origin = nil // every node is given below, or was when it joined
	for i := range n.routers {
		switch {
		case f.inF[i]:
		case f.isTracked[i]:
			f.replayNode(i, n.cycle-1, false)
		default:
			n.copyNodeFrom(wend, i)
			f.copied++
			f.track(i)
		}
	}

	live, repl := n.ejections[f.logBase:], f.replaced
	full := append(f.backfill[:0], n.ejections[:f.logBase]...)
	for c, stored := 0, min(rec.Cycles(), int(n.cycle-rec.start)); c < stored; c++ {
		t := rec.start + int64(c)
		for k := int(rec.ejectIdx[c]); k < int(rec.ejectIdx[c+1]); k++ {
			node := int(rec.ejectNode[k])
			for len(live) > 0 && (live[0].Cycle < t || live[0].Cycle == t && live[0].Node < node) {
				full, live = append(full, live[0]), live[1:]
			}
			if len(repl) > 0 && repl[0].Flit == &rec.ejectFlits[k] {
				repl = repl[1:]
				continue
			}
			full = append(full, Ejection{Node: node, Cycle: t, Flit: &rec.ejectFlits[k]})
		}
	}
	full = append(full, live...)
	f.backfill, n.ejections = n.ejections[:0], full
	f.logBase, f.replaced = len(full), f.replaced[:0]
}

// stageCreditMask stages one credit per set VC bit.
func stageCreditMask(r *router.Router, port topology.Direction, mask uint32) {
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		mask &^= 1 << uint(v)
		r.StageCredit(port, v)
	}
}
