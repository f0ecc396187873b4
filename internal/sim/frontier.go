package sim

import (
	"fmt"
	"math/bits"

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
// The invariant: a node outside the frontier holds exactly the golden
// state of some past boundary (validAt), and every signal it has
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
// state fold returns to the recorded golden fold for the same boundary;
// a frontier that shrinks to empty with a clean ejection history IS
// reconvergence — the unification with the campaign's fingerprint
// timeline probe.
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
// Everything observable stays exact: monitors are fed the merged event
// stream (live events from members, recorded events from clean nodes),
// the ejection log and the global counters are maintained cycle by
// cycle, and NoCAlert's checker sweeps only ever see member routers —
// exact because the golden run is invariant-clean, so clean routers can
// assert nothing.
type Frontier struct {
	n   *Network
	rec *Recording

	inF       []bool  // current membership
	wasMember []bool  // membership at the start of the cycle being stepped
	validAt   []int64 // for non-members: boundary their state is golden at
	size      int

	// clean is true while the run's post-fork ejection history equals
	// golden's, value for value. It never returns to true once false.
	clean bool

	peak  int
	joins int64

	// per-cycle scratch
	members   []int
	steppedS  []int
	pendF     []pendFlit
	pendC     []pendCred
	matchedF  []bool
	matchedC  []bool
	joinList  []int
	ejScratch []*flit.Flit
	genPkt    flit.Packet
}

// pendFlit is a member's live emission toward a clean node, held until
// the cycle's join decisions are made.
type pendFlit struct {
	src, dst int
	port     topology.Direction
	f        *flit.Flit
}

// pendCred is a member's live credit traffic toward a clean node,
// aggregated per link as a VC mask.
type pendCred struct {
	src, dst int
	port     topology.Direction
	mask     uint32
}

// NewFrontier builds a frontier over n seeded with the given node ids
// (the fault sites). n must stand at the transcript's start boundary —
// the state every node's validAt is pinned to — and rec must be the
// golden transcript of the cycles about to be stepped.
func NewFrontier(n *Network, rec *Recording, seeds []int) *Frontier {
	if n.cycle != rec.start {
		panic(fmt.Sprintf("sim: frontier fork at cycle %d does not match transcript start %d", n.cycle, rec.start))
	}
	if n.arena == nil {
		n.arena = &flit.Arena{}
	}
	nodes := len(n.routers)
	f := &Frontier{
		n: n, rec: rec, clean: true,
		inF:       make([]bool, nodes),
		wasMember: make([]bool, nodes),
		validAt:   make([]int64, nodes),
	}
	for i := range f.validAt {
		f.validAt[i] = n.cycle
	}
	for _, s := range seeds {
		if !f.inF[s] {
			f.inF[s] = true
			f.size++
		}
	}
	f.peak = f.size
	return f
}

// Size returns the current frontier membership count.
func (f *Frontier) Size() int { return f.size }

// Empty reports whether no node is divergent.
func (f *Frontier) Empty() bool { return f.size == 0 }

// Clean reports whether the post-fork ejection history still equals
// golden's, value for value.
func (f *Frontier) Clean() bool { return f.clean }

// Peak returns the largest membership the frontier reached.
func (f *Frontier) Peak() int { return f.peak }

// Joins returns how many times a node joined the frontier (a node that
// retires and diverges again counts once per join).
func (f *Frontier) Joins() int64 { return f.joins }

// Step simulates one cycle of the faulty network, stepping only
// frontier members and replaying every other node's signals from the
// golden transcript. It mirrors Network.Step phase for phase, so the
// merged monitor event stream, ejection log and counters are identical
// to a full simulation's.
func (f *Frontier) Step() {
	n := f.n
	t := n.cycle
	if !f.rec.covers(t) {
		panic(fmt.Sprintf("sim: frontier stepped to cycle %d outside transcript [%d,%d)", t, f.rec.start, f.rec.start+int64(f.rec.Cycles())))
	}
	if n.injecting != (t < f.rec.injectEnd) {
		panic(fmt.Sprintf("sim: frontier at cycle %d has injection on=%t, the transcript stopped injecting at cycle %d", t, n.injecting, f.rec.injectEnd))
	}
	copy(f.wasMember, f.inF)
	members := f.members[:0]
	for i, m := range f.inF {
		if m {
			members = append(members, i)
		}
	}
	f.members = members

	f.stepGeneration(t)

	// Router pipelines: members only, in ascending node order, with the
	// same inert-router skip Network.Step applies (gated off while the
	// plane is live; an inert member is a provable no-op either way).
	skipInert := !n.soaOff && !n.plane.LiveAt(t)
	steppedIDs := f.steppedS[:0]
	for _, id := range members {
		r := n.routers[id]
		if skipInert && r.Inert() {
			continue
		}
		r.BeginCycle(t)
		r.Evaluate(t)
		steppedIDs = append(steppedIDs, id)
	}
	f.steppedS = steppedIDs

	f.stepLinks(t, steppedIDs)

	// Monitors observe member routers (ascending). Clean routers replay
	// golden, which is invariant-clean, so skipping them is exact for
	// NoCAlert's combinational checkers; ForEVeR's RouterCycle is pure
	// per-cycle detection over the same signals and never flags a clean
	// router either.
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

	f.retire(t)
}

// stepGeneration runs the merged packet-generation phase: members draw
// their traffic RNG live (the generation process is fault-independent,
// so their draws necessarily equal golden's records), clean nodes
// replay the recorded events without touching any state. Either way the
// monitor announcements and the nextPkt/pktsOffered counters advance in
// golden's exact node order.
func (f *Frontier) stepGeneration(t int64) {
	n := f.n
	if !n.injecting || n.pktProb <= 0 {
		return
	}
	lo, hi := f.rec.seg(f.rec.genIdx, t)
	gi := lo
	for id, ni := range n.nis {
		if f.wasMember[id] {
			// Skip this node's record (the live draw reproduces it).
			for gi < hi && int(f.rec.gens[gi].node) == id {
				gi++
			}
			if !ni.gen.Bernoulli(n.pktProb) {
				continue
			}
			class := n.pickClass(ni.gen)
			p := &flit.Packet{
				ID:         n.nextPkt,
				Src:        id,
				Dest:       n.cfg.Pattern.Dest(n.mesh, id, ni.gen),
				Class:      class,
				Length:     n.rcfg.PacketLen(class),
				Payload:    ni.gen.Uint64(),
				InjectedAt: t,
			}
			n.nextPkt++
			n.pktsOffered++
			ni.enqueue(p)
			for _, m := range n.monitors {
				m.PacketInjected(t, id, p)
			}
			continue
		}
		for gi < hi && int(f.rec.gens[gi].node) == id {
			g := &f.rec.gens[gi]
			gi++
			// Reconstruct the packet for the monitors only; the NI's
			// queue and RNG stay untouched (they are stale by design).
			// Monitors read the packet during the call and do not
			// retain it, so one scratch value serves every event.
			f.genPkt = flit.Packet{
				ID:         g.id,
				Src:        id,
				Dest:       int(g.dest),
				Class:      int(g.class),
				Length:     n.rcfg.PacketLen(int(g.class)),
				Payload:    g.payload,
				InjectedAt: t,
			}
			n.nextPkt++
			n.pktsOffered++
			for _, m := range n.monitors {
				m.PacketInjected(t, id, &f.genPkt)
			}
		}
	}
}

// stepLinks runs the link-traversal phase: live delivery between
// members, golden replay from clean nodes into members, and the
// divergence comparison — every member emission toward a clean node is
// checked against the record, and any deviation (different value, extra
// signal, missing signal) joins the target.
func (f *Frontier) stepLinks(t int64, steppedIDs []int) {
	n := f.n
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
			nb, ok := n.mesh.Neighbor(id, dir)
			if !ok {
				continue // fault-driven misroute off the fabric
			}
			if f.wasMember[nb] {
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
			nb, ok := n.mesh.Neighbor(id, c.Port)
			if !ok {
				continue
			}
			if f.wasMember[nb] {
				n.routers[nb].StageCredit(c.Port.Opposite(), c.VC)
				continue
			}
			f.addPendCredit(id, nb, c.Port.Opposite(), c.VC)
		}
	}

	// Compare member→clean traffic against the record and collect joins.
	lLo, lHi := f.rec.seg(f.rec.linkIdx, t)
	cLo, cHi := f.rec.seg(f.rec.credIdx, t)
	f.matchedF = growBools(f.matchedF, lHi-lLo)
	f.matchedC = growBools(f.matchedC, cHi-cLo)
	f.joinList = f.joinList[:0]

	for i := range f.pendF {
		pf := &f.pendF[i]
		found := false
		for k := lLo; k < lHi; k++ {
			l := &f.rec.links[k]
			if int(l.src) == pf.src && int(l.dst) == pf.dst {
				found = true
				f.matchedF[k-lLo] = true
				if l.flit != *pf.f {
					f.markJoin(pf.dst)
				}
				break
			}
		}
		if !found {
			f.markJoin(pf.dst)
		}
	}
	for i := range f.pendC {
		pc := &f.pendC[i]
		found := false
		for k := cLo; k < cHi; k++ {
			c := &f.rec.credits[k]
			if int(c.src) == pc.src && int(c.dst) == pc.dst {
				found = true
				f.matchedC[k-cLo] = true
				if c.mask != pc.mask {
					f.markJoin(pc.dst)
				}
				break
			}
		}
		if !found {
			f.markJoin(pc.dst)
		}
	}
	// Recorded golden emissions from a member that the live member did
	// not reproduce: the golden flow the target expected is missing.
	for k := lLo; k < lHi; k++ {
		l := &f.rec.links[k]
		if f.wasMember[l.src] && !f.wasMember[l.dst] && !f.matchedF[k-lLo] {
			f.markJoin(int(l.dst))
		}
	}
	for k := cLo; k < cHi; k++ {
		c := &f.rec.credits[k]
		if f.wasMember[c.src] && !f.wasMember[c.dst] && !f.matchedC[k-cLo] {
			f.markJoin(int(c.dst))
		}
	}

	// Golden replay: clean nodes' recorded emissions into members.
	for k := lLo; k < lHi; k++ {
		l := &f.rec.links[k]
		if !f.wasMember[l.src] && f.wasMember[l.dst] {
			n.routers[l.dst].StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
		}
	}
	for k := cLo; k < cHi; k++ {
		c := &f.rec.credits[k]
		if !f.wasMember[c.src] && f.wasMember[c.dst] {
			stageCreditMask(n.routers[c.dst], topology.Direction(c.dstPort), c.mask)
		}
	}

	// Execute the joins: materialize each target by replaying it from
	// its valid boundary, then admit it. Joins touch only the joining
	// node, so their order is immaterial.
	for _, j := range f.joinList {
		f.replayNode(j, t)
		f.inF[j] = true
		f.size++
		f.joins++
		if f.size > f.peak {
			f.peak = f.size
		}
	}
}

// markJoin queues a node for frontier admission this cycle (idempotent
// within the cycle).
func (f *Frontier) markJoin(id int) {
	for _, j := range f.joinList {
		if j == id {
			return
		}
	}
	f.joinList = append(f.joinList, id)
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

// stepNIs runs the network-interface phase: members tick live (their
// ejections compared against the record to maintain the clean flag),
// clean nodes — including this cycle's joiners, whose cycle-t NI
// effects were computed from still-golden state and so equal the record
// — replay their recorded send strobes and ejections into the counters,
// the log and the monitors.
func (f *Frontier) stepNIs(t int64) {
	n := f.n
	sLo, sHi := f.rec.seg(f.rec.sendIdx, t)
	eLo, eHi := f.rec.seg(f.rec.ejectIdx, t)
	si, ei := sLo, eLo
	for id, ni := range n.nis {
		if f.wasMember[id] {
			f.ejScratch = f.ejScratch[:0]
			if ni.tickInject(t, n.routers[id], &f.ejScratch) {
				n.flitsInjected++
			}
			// A member's send strobe is live; skip golden's record of it.
			if si < sHi && int(f.rec.sends[si]) == id {
				si++
			}
			// Compare the member's live ejections with golden's.
			recLo := ei
			for ei < eHi && int(f.rec.ejects[ei].node) == id {
				ei++
			}
			if f.clean && ei-recLo != len(f.ejScratch) {
				f.clean = false
			}
			for i, fl := range f.ejScratch {
				if f.clean && f.rec.ejects[recLo+i].flit != *fl {
					f.clean = false
				}
				n.flitsEjected++
				n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: fl})
				for _, m := range n.monitors {
					m.FlitEjected(t, id, fl)
				}
			}
			continue
		}
		if si < sHi && int(f.rec.sends[si]) == id {
			si++
			n.flitsInjected++
		}
		for ei < eHi && int(f.rec.ejects[ei].node) == id {
			fl := n.arena.CloneOf(&f.rec.ejects[ei].flit)
			ei++
			n.flitsEjected++
			n.ejections = append(n.ejections, Ejection{Node: id, Cycle: t, Flit: fl})
			for _, m := range n.monitors {
				m.FlitEjected(t, id, fl)
			}
		}
	}
}

// retire removes members whose state has returned to golden. Only legal
// once the fault plane is quiescent: from then on the faulty network is
// an unfaulted deterministic system, so a node whose fold equals the
// recorded golden fold at the same boundary — inputs included, since
// the fold covers staged arrivals and credits — will replay golden
// exactly until a frontier neighbor diverges its inputs again (which is
// the join trigger).
func (f *Frontier) retire(t int64) {
	n := f.n
	if f.size == 0 || !n.FaultsQuiescent() {
		return
	}
	golden := f.rec.foldRow(t)
	for _, id := range f.members {
		if !f.inF[id] {
			continue
		}
		if n.nodeFold(id) == golden[id] {
			f.inF[id] = false
			f.validAt[id] = t + 1
			f.size--
		}
	}
}

// replayNode materializes node id's live state at boundary through+1 by
// replaying cycles [validAt, through] with golden inputs from the
// transcript, drawing its traffic RNG on exactly the cycles golden was
// injecting (a node that joins during the drain may have been valid since
// the window). The node's own Local traffic loops back live; its
// emissions toward neighbors are discarded (their effects are already
// baked into the records the neighbors consumed); monitors see nothing
// (every observable event of these cycles was already announced from
// the records as they happened). On the final cycle the inbound staging
// overrides golden with the live emissions of current members — the
// divergent signals that triggered the join.
func (f *Frontier) replayNode(id int, through int64) {
	n := f.n
	ni := n.nis[id]
	r := n.routers[id]
	for s := f.validAt[id]; s <= through; s++ {
		if s < f.rec.injectEnd && n.pktProb > 0 && ni.gen.Bernoulli(n.pktProb) {
			class := n.pickClass(ni.gen)
			dest := n.cfg.Pattern.Dest(n.mesh, id, ni.gen)
			payload := ni.gen.Uint64()
			p := &flit.Packet{
				ID:         f.genIDFor(s, id),
				Src:        id,
				Dest:       dest,
				Class:      class,
				Length:     n.rcfg.PacketLen(class),
				Payload:    payload,
				InjectedAt: s,
			}
			ni.enqueue(p)
		}
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
		lLo, lHi := f.rec.seg(f.rec.linkIdx, s)
		cLo, cHi := f.rec.seg(f.rec.credIdx, s)
		if s < through {
			for k := lLo; k < lHi; k++ {
				l := &f.rec.links[k]
				if int(l.dst) == id {
					r.StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
				}
			}
			for k := cLo; k < cHi; k++ {
				c := &f.rec.credits[k]
				if int(c.dst) == id {
					stageCreditMask(r, topology.Direction(c.dstPort), c.mask)
				}
			}
		} else {
			// Final cycle: golden inputs from clean neighbors, live
			// inputs from members (whatever they actually emitted, which
			// is what diverged).
			for k := lLo; k < lHi; k++ {
				l := &f.rec.links[k]
				if int(l.dst) == id && !f.wasMember[l.src] {
					r.StageArrival(topology.Direction(l.dstPort), n.arena.CloneOf(&l.flit))
				}
			}
			for k := cLo; k < cHi; k++ {
				c := &f.rec.credits[k]
				if int(c.dst) == id && !f.wasMember[c.src] {
					stageCreditMask(r, topology.Direction(c.dstPort), c.mask)
				}
			}
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
		// logged and counted from the records when cycle s completed.
	}
}

// genIDFor returns the packet id golden assigned to node's generation
// at cycle s. A replaying node's Bernoulli hit must have a matching
// record — generation is fault-independent — so a miss means the
// transcript and the replay disagree about the RNG stream.
func (f *Frontier) genIDFor(s int64, node int) uint64 {
	lo, hi := f.rec.seg(f.rec.genIdx, s)
	for k := lo; k < hi; k++ {
		if int(f.rec.gens[k].node) == node {
			return f.rec.gens[k].id
		}
	}
	panic(fmt.Sprintf("sim: replay of node %d drew a generation at cycle %d with no golden record", node, s))
}

// Quiet is Network.Quiet for the run the frontier stands for: the fabric
// is empty by the live counters, every member's NI is idle, and golden
// recorded every other NI idle at this boundary. At least one cycle must
// have been stepped (the rows are per stepped cycle).
func (f *Frontier) Quiet() bool {
	n := f.n
	if n.InFlight() > 0 {
		return false
	}
	for i, w := range f.rec.busyRow(n.cycle - 1) {
		for ; w != 0; w &= w - 1 {
			if !f.inF[i*64+bits.TrailingZeros64(w)] {
				return false
			}
		}
	}
	for id, m := range f.inF {
		if m && n.nis[id].busy() {
			return false
		}
	}
	return true
}

// StaticFingerprint stands in for Network.StaticFingerprint: two
// consecutive boundaries agree iff no mutable state of the run changed
// across the step. It folds the live counters and one state fold per
// node — a member's live one, anyone else's as golden recorded it at this
// boundary, which by the frontier invariant is the fold of the state a
// full simulation would hold there. A node that joins or retires between
// the two boundaries changes where its fold is read from, not its value.
// (Network.StaticFingerprint on a frontier's network would hash the
// stale, constant state of the nodes outside it and freeze falsely.)
// Like Quiet it needs one stepped cycle.
func (f *Frontier) StaticFingerprint() uint64 {
	n := f.n
	h := n.foldCounters(statehash.Seed)
	for id, fold := range f.rec.foldRow(n.cycle - 1) {
		if f.inF[id] {
			fold = n.nodeFold(id)
		}
		h = statehash.Fold(h, fold)
	}
	return h
}

// MaterializeAll restores every non-member node to full live state by
// cloning it from wend, the golden network at the frontier's current
// boundary — legal because a clean node's state and inputs are golden's
// by the frontier invariant. Members keep their live (divergent) state;
// the network-level counters were maintained cycle by cycle and are not
// touched. After this the network is an ordinary full simulation again.
// Campaign runs never need it (the frontier carries them to the end);
// it is how tests and probes turn a frontier run back into a network they
// can fingerprint.
func (f *Frontier) MaterializeAll(wend *Network) {
	n := f.n
	if wend.cycle != n.cycle {
		panic(fmt.Sprintf("sim: materialize from golden boundary %d at live cycle %d", wend.cycle, n.cycle))
	}
	for i := range n.routers {
		if f.inF[i] {
			continue
		}
		n.routers[i] = wend.routers[i].CloneInto(n.routers[i], n.plane, n.arena)
		n.nis[i] = wend.nis[i].cloneInto(n.nis[i], n.arena)
	}
}

// stageCreditMask stages one credit per set VC bit.
func stageCreditMask(r *router.Router, port topology.Direction, mask uint32) {
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		mask &^= 1 << uint(v)
		r.StageCredit(port, v)
	}
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
