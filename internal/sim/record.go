package sim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"nocalert/internal/flit"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// The golden signal recording: a per-cycle, per-link transcript of
// everything that crosses a boundary between two nodes of the fault-free
// golden continuation — packet generations, flits and credits on every
// inter-router link, NI send strobes, ejections — plus one per-node
// state fold and one busy-NI bit per node per cycle boundary. A forked
// faulty run's divergence frontier (see frontier.go) consumes this
// transcript to stand in for every router it is not simulating: clean
// nodes' outbound signals are replayed from the record, a frontier
// member's outbound signals are compared against it to detect divergence
// spreading, the per-node folds are what lets a member retire the moment
// its state returns to golden's, and the busy bits answer Quiet for the
// NIs the frontier does not own.
//
// A transcript that runs on through the golden drain until the network
// has settled — injection off, a cycle with no signal at all across which
// no node's fold changed — covers every later cycle too: such a network
// is a fixed point (every stamped queue carries at most one cycle of
// lookahead, the argument StaticFingerprint rests on), so its future is
// empty event segments and the last fold and busy rows, for ever. Those
// cycles are never stored; seg, foldRow and busyRow answer them from the
// last recorded one.
//
// The record is value-based throughout (flit values, not pointers), so
// replaying it cannot alias the golden network's state, and it covers
// inter-node signals only: everything that happens strictly inside one
// node (buffer reads, arbitration, the NI's own credit maturation) is
// recomputed, never recorded.

// Every event kind is stored cycle-major in a flat payload array, a
// cycle's events in ascending emitter order (Step walks NIs and stepped
// routers by id), with per-cycle prefix offsets beside it. While the
// transcript is being recorded a dense []int32 key array names each
// event's emitter (generating NI, sending router, ejecting NI). Once it
// is complete StopRecording turns the keys into node-major indices
// (nodeIndex): per emitter the ids of its generations, link flits, credit
// masks, send strobes and ejections, and per destination the ids of the
// link and credit events that land on it. An id is an event's position in
// its payload array, so ids ascend with cycle, and whoever reads one
// node's events cycle after cycle — the frontier, for its members and the
// nodes it replays — keeps a cursor into the node's list and finds a
// cycle's events next to the last cycle's, without searching
// (Recording.events). The key arrays nothing reads any more are dropped.

// recGen is one packet generation event: the keyed NI drew a Bernoulli
// hit at the record's cycle. The RNG-derived fields are stored so a
// joining node can be replayed without a packet id of its own.
type recGen struct {
	class   int32
	dest    int32
	id      uint64
	payload uint64
}

// recLink is one flit crossing the link from the keyed router to dst:
// the value the flit had on the wire (post any sender-side mutation) and
// the input port it lands on at dst.
type recLink struct {
	dst     int32
	dstPort uint8
	flit    flit.Flit
}

// recCredit is the credit traffic on the credit link from the keyed
// router to dst for one cycle, aggregated as a VC bitmask (StageCredit
// ORs per-VC bits, so a mask loses nothing).
type recCredit struct {
	dst     int32
	dstPort uint8
	mask    uint32
}

// Recording is the golden signal transcript for a contiguous cycle
// range [start, start+cycles), unbounded above once settled. Event
// storage is flat, indexed by per-cycle prefix offsets, so an 800-cycle
// window costs a handful of slice headers rather than thousands of small
// allocations.
type Recording struct {
	start int64
	nodes int
	// injectEnd is the first recorded cycle stepped with injection off
	// (math.MaxInt64 while there is none): a node replayed across it must
	// draw its traffic RNG for the cycles before it and only those.
	injectEnd int64
	// settled reports that the last recorded cycle left the network a
	// fixed point, which makes every later cycle a recorded one.
	settled bool

	// Events: key array (emitting node) and payload array, index for
	// index. sends has a key only; an ejection's payload is the flit.
	// genNode, linkSrc, creditSrc and sends exist while recording only:
	// the indices below replace them (a link's or credit's emitter is the
	// mesh neighbour of dst through dstPort). ejectNode stays, for
	// MaterializeAll's cycle-major walk of the ejections.
	genNode    []int32
	gens       []recGen
	linkSrc    []int32
	links      []recLink
	creditSrc  []int32
	credits    []recCredit
	sends      []int32
	ejectNode  []int32
	ejectFlits []flit.Flit
	// by holds the node-major indices over the event arrays, one a view,
	// built by StopRecording.
	by [views]nodeIndex
	// folds holds nodes per-node state folds per recorded cycle: entry
	// c*nodes+i is node i's fold at the boundary ending cycle start+c.
	folds []uint64
	// foldSum holds one order-free digest of each cycle's fold row (the
	// sum of foldTerm over the nodes): what a frontier's static
	// fingerprint starts from, so that it folds its members' rows only.
	foldSum []uint64
	// busy holds one bit per node per recorded cycle, busyWords() words a
	// cycle: set when the node's NI holds a queued packet, a streaming
	// flit or an unprocessed arrival at that boundary (NI.busy). busyN is
	// each row's population count.
	busy  []uint64
	busyN []int32
	// prefix offsets, one entry per closed cycle plus the open tail. They
	// are running event counts as well: a cycle's generation, send and
	// ejection totals are differences of neighbouring entries.
	genIdx, linkIdx, credIdx, sendIdx, ejectIdx []int32
}

// The views a stopped transcript is indexed by: a node's own packet
// generations, link flits, credit masks, send strobes and ejections, and
// the link flits and credit masks that land on it (its inbox).
const (
	byGen = iota
	byLinkFrom
	byCreditFrom
	bySend
	byEject
	byLinkTo
	byCreditTo
	views
)

// nodeIndex is a node-major index of one event kind over its cycle-major
// payload array: ids[off[i]:off[i+1]] are the ids of node i's events,
// ascending. cycle is the kind's per-cycle prefix offsets (genIdx,
// linkIdx, …), which say where in the ids a cycle begins.
type nodeIndex struct {
	off   []int32
	ids   []int32
	cycle []int32
}

// indexBy builds the node-major index of count events, key(k) naming the
// node event k belongs to, by one counting sort (stable, so every node's
// ids ascend).
func indexBy(nodes int, cycle []int32, key func(k int) int32) nodeIndex {
	count := int(cycle[len(cycle)-1])
	x := nodeIndex{off: make([]int32, nodes+1), ids: make([]int32, count), cycle: cycle}
	for k := 0; k < count; k++ {
		x.off[key(k)+1]++
	}
	for i := 0; i < nodes; i++ {
		x.off[i+1] += x.off[i]
	}
	// off[i] is node i's next free slot while placing, which leaves it at
	// the start of node i+1's: shift back down afterwards.
	for k := 0; k < count; k++ {
		i := key(k)
		x.ids[x.off[i]] = int32(k)
		x.off[i]++
	}
	copy(x.off[1:], x.off)
	x.off[0] = 0
	return x
}

// recLoad is the traffic a transcript is sized for, per cycle: packets
// generated, flits entering (and leaving) the fabric, and flits crossing
// a link.
type recLoad struct{ pkts, flits, hops float64 }

// offeredLoad is the configured load: the injection rate over the mesh,
// and for the link traffic times the mean Manhattan distance from a node
// to another — what uniform traffic travels; a pattern with longer routes
// outgrows the estimate and the arrays grow by append.
func (n *Network) offeredLoad() recLoad {
	nodes := float64(len(n.routers))
	if nodes < 2 {
		return recLoad{}
	}
	w, h := float64(n.mesh.W), float64(n.mesh.H)
	dist := ((w*w-1)/(3*w) + (h*h-1)/(3*h)) * nodes / (nodes - 1)
	flits := n.cfg.InjectionRate * nodes
	return recLoad{pkts: n.pktProb * nodes, flits: flits, hops: flits * dist}
}

// recSlack is the headroom every event array gets on top of its estimate:
// what keeps a small transcript, whose counts scatter widely around their
// mean, from reallocating over a handful of events.
const recSlack = 32

// newRecording returns an empty transcript starting at cycle start, its
// arrays sized once for a window of the given length on a w×h mesh under
// load: the window's cycles plus a drain allowance of four cycles per hop
// of the mesh's diameter — golden's drain takes about three, and then the
// last credits go home — at the load's events a cycle; packets are
// generated in the window's cycles only. A transcript over the window
// alone, or under lighter traffic than configured, ends with that much
// room unused; an array that turns out too small grows by append like any
// other.
func newRecording(start int64, mesh topology.Mesh, cycles int, load recLoad) *Recording {
	nodes := mesh.Nodes()
	r := &Recording{start: start, nodes: nodes, injectEnd: math.MaxInt64}
	rows := cycles + 4*(mesh.W+mesh.H)
	events := func(perCycle float64) int { return int(perCycle*float64(rows)) + recSlack }
	gens := int(load.pkts*float64(cycles)) + recSlack
	r.genNode = make([]int32, 0, gens)
	r.gens = make([]recGen, 0, gens)
	r.linkSrc = make([]int32, 0, events(load.hops))
	r.links = make([]recLink, 0, events(load.hops))
	// A flit that crossed a link sends one credit back over it.
	r.creditSrc = make([]int32, 0, events(load.hops))
	r.credits = make([]recCredit, 0, events(load.hops))
	r.sends = make([]int32, 0, events(load.flits))
	r.ejectNode = make([]int32, 0, events(load.flits))
	r.ejectFlits = make([]flit.Flit, 0, events(load.flits))
	r.genIdx = append(make([]int32, 0, rows+1), 0)
	r.linkIdx = append(make([]int32, 0, rows+1), 0)
	r.credIdx = append(make([]int32, 0, rows+1), 0)
	r.sendIdx = append(make([]int32, 0, rows+1), 0)
	r.ejectIdx = append(make([]int32, 0, rows+1), 0)
	r.folds = make([]uint64, 0, rows*nodes)
	r.foldSum = make([]uint64, 0, rows)
	r.busy = make([]uint64, 0, rows*r.busyWords())
	r.busyN = make([]int32, 0, rows)
	return r
}

// Cycles returns the number of fully recorded cycles.
func (rc *Recording) Cycles() int { return len(rc.genIdx) - 1 }

// covers reports whether cycle t is inside the recorded range.
func (rc *Recording) covers(t int64) bool {
	return t >= rc.start && (rc.settled || t < rc.start+int64(rc.Cycles()))
}

// seg returns the [lo,hi) event range of cycle t in the given prefix
// offsets: empty past the stored cycles of a settled transcript. t must be
// a covered cycle.
func (rc *Recording) seg(idx []int32, t int64) (int, int) {
	c := int(t - rc.start)
	if c >= rc.Cycles() {
		return 0, 0
	}
	return int(idx[c]), int(idx[c+1])
}

// events returns the ids of node's events of cycle t in one view (empty
// past the stored cycles of a settled transcript, like seg). cur is the
// reader's cursor for this view and node: a position in the node's id
// list, zero before the first lookup, which events leaves on the first of
// the node's events not before cycle t. A reader that asks for
// non-decreasing cycles — and every reader of the frontier does, node by
// node — therefore pays for the events it passes over and nothing else; a
// cursor found ahead of cycle t is put right by binary search.
func (rc *Recording) events(view int, cur *int32, t int64, node int) []int32 {
	c := int(t - rc.start)
	if c >= rc.Cycles() {
		return nil
	}
	x := &rc.by[view]
	lo, hi := x.cycle[c], x.cycle[c+1]
	if lo == hi {
		return nil
	}
	list := x.ids[x.off[node]:x.off[node+1]]
	a := int(*cur)
	if a > 0 && list[a-1] >= lo {
		a, _ = slices.BinarySearch(list, lo)
	}
	for a < len(list) && list[a] < lo {
		a++
	}
	*cur = int32(a)
	b := a
	for b < len(list) && list[b] < hi {
		b++
	}
	return list[a:b]
}

// row returns the stored cycle whose boundary rows stand for the
// boundary that ends cycle t: t itself, or the last one past the end of
// a settled transcript.
func (rc *Recording) row(t int64) int {
	return min(int(t-rc.start), rc.Cycles()-1)
}

// foldRow returns every node's recorded state fold at the boundary that
// ends cycle t.
func (rc *Recording) foldRow(t int64) []uint64 {
	c := rc.row(t)
	return rc.folds[c*rc.nodes : (c+1)*rc.nodes]
}

// busyRow returns the busy-NI bits at the boundary that ends cycle t.
func (rc *Recording) busyRow(t int64) []uint64 {
	c, w := rc.row(t), rc.busyWords()
	return rc.busy[c*w : (c+1)*w]
}

func (rc *Recording) busyWords() int { return (rc.nodes + 63) / 64 }

// foldTerm is node i's term in a fold row's digest (foldSum). The digest
// is a wrapping sum, so replacing one node's fold is one subtraction and
// one addition; each term is the node's fold mixed with its id, so equal
// folds at different nodes do not cancel.
func foldTerm(i int, fold uint64) uint64 {
	return statehash.Fold(statehash.FoldInt(statehash.Seed, i), fold)
}

// recordGen appends a generation event for the open cycle.
func (rc *Recording) recordGen(node int, p *flit.Packet) {
	rc.genNode = append(rc.genNode, int32(node))
	rc.gens = append(rc.gens, recGen{class: int32(p.Class), dest: int32(p.Dest), id: p.ID, payload: p.Payload})
}

// recordLink appends a flit crossing src→dst, landing on dst's input
// port dstPort.
func (rc *Recording) recordLink(src, dst, dstPort int, f *flit.Flit) {
	rc.linkSrc = append(rc.linkSrc, int32(src))
	rc.links = append(rc.links, recLink{dst: int32(dst), dstPort: uint8(dstPort), flit: *f})
}

// recordCredit ORs a credit for VC vc into the src→dst mask of the open
// cycle (creating the entry on first use). The link loop emits credits
// grouped by src, so the scan for an existing entry only walks the
// current router's tail.
func (rc *Recording) recordCredit(src, dst, dstPort, vc int) {
	lo := int(rc.credIdx[len(rc.credIdx)-1])
	for i := len(rc.credits) - 1; i >= lo && int(rc.creditSrc[i]) == src; i-- {
		if e := &rc.credits[i]; int(e.dst) == dst {
			e.mask |= 1 << uint(vc)
			return
		}
	}
	rc.creditSrc = append(rc.creditSrc, int32(src))
	rc.credits = append(rc.credits, recCredit{dst: int32(dst), dstPort: uint8(dstPort), mask: 1 << uint(vc)})
}

// recordSend appends node's NI send strobe for the open cycle.
func (rc *Recording) recordSend(node int) {
	rc.sends = append(rc.sends, int32(node))
}

// recordEject appends an ejection at node for the open cycle.
func (rc *Recording) recordEject(node int, f *flit.Flit) {
	rc.ejectNode = append(rc.ejectNode, int32(node))
	rc.ejectFlits = append(rc.ejectFlits, *f)
}

// closeCycle seals the open cycle: folds every node's state and notes
// its NI's busy bit at the just-completed boundary, freezes the event
// ranges and decides whether the network has settled. A node nothing wrote
// since the last boundary — its router neither stepped nor staged into,
// its NI neither ticked nor handed anything — is folded from its router's
// and NI's kept folds (router.Router.FoldState, NI.foldState) and its
// traffic generator, the one part of it that moves while it has nothing to
// do.
func (rc *Recording) closeCycle(n *Network) {
	c := rc.Cycles()
	var sum uint64
	for i := range n.routers {
		fold := n.nodeFold(i)
		rc.folds = append(rc.folds, fold)
		sum += foldTerm(i, fold)
	}
	rc.foldSum = append(rc.foldSum, sum)
	busyN := int32(0)
	for i := 0; i < len(n.nis); i += 64 {
		var word uint64
		for b, ni := range n.nis[i:min(i+64, len(n.nis))] {
			if ni.busy() {
				word |= 1 << uint(b)
				busyN++
			}
		}
		rc.busy = append(rc.busy, word)
	}
	rc.busyN = append(rc.busyN, busyN)
	if !n.injecting && rc.injectEnd == math.MaxInt64 {
		rc.injectEnd = n.cycle - 1
	}
	rc.settled = !n.injecting && c > 0 &&
		len(rc.links) == int(rc.linkIdx[c]) && len(rc.credits) == int(rc.credIdx[c]) &&
		len(rc.sends) == int(rc.sendIdx[c]) && len(rc.ejectNode) == int(rc.ejectIdx[c]) &&
		slices.Equal(rc.folds[c*rc.nodes:], rc.folds[(c-1)*rc.nodes:c*rc.nodes])
	rc.genIdx = append(rc.genIdx, int32(len(rc.gens)))
	rc.linkIdx = append(rc.linkIdx, int32(len(rc.links)))
	rc.credIdx = append(rc.credIdx, int32(len(rc.credits)))
	rc.sendIdx = append(rc.sendIdx, int32(len(rc.sends)))
	rc.ejectIdx = append(rc.ejectIdx, int32(len(rc.ejectNode)))
}

// Payload bytes per event of the transcript's flat storage: the structs'
// sizes on the target (a flit.Flit is 104 bytes on amd64, 64 on 386).
const (
	recGenBytes    = int64(unsafe.Sizeof(recGen{}))
	recLinkBytes   = int64(unsafe.Sizeof(recLink{})) // embeds the flit value
	recCreditBytes = int64(unsafe.Sizeof(recCredit{}))
	recEjectBytes  = int64(unsafe.Sizeof(flit.Flit{}))
)

// ApproxFootprintBytes estimates the memory the transcript retains:
// flat event storage at capacity (payloads and what key arrays there
// are), the node-major indices, the per-cycle prefix offsets, the
// per-node fold table with its row digests and the busy-NI bits with
// their row counts. Like Network.ApproxFootprintBytes it is a
// deterministic accounting estimate, not a heap measurement.
func (rc *Recording) ApproxFootprintBytes() int64 {
	if rc == nil {
		return 0
	}
	b := int64(cap(rc.gens))*recGenBytes +
		int64(cap(rc.links))*recLinkBytes +
		int64(cap(rc.credits))*recCreditBytes +
		int64(cap(rc.ejectFlits))*recEjectBytes +
		int64(cap(rc.folds)+cap(rc.foldSum)+cap(rc.busy))*8
	b += int64(cap(rc.genNode)+cap(rc.linkSrc)+cap(rc.creditSrc)+cap(rc.sends)+cap(rc.ejectNode)+cap(rc.busyN)) * 4
	b += int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx)) * 4
	for i := range rc.by {
		b += int64(cap(rc.by[i].off)+cap(rc.by[i].ids)) * 4
	}
	return b
}

// nodeFold folds node i's state — router registers, buffers, staged
// arrivals, plus the NI — into one hash: the per-node slice of
// Network.foldBody's enumeration (routerFold, then the NI). A faulty run's
// node whose fold equals the golden recording's at the same boundary, its
// plane quiescent, holds up to hash collision golden's live state, and
// steps as golden does under golden's inputs.
func (n *Network) nodeFold(i int) uint64 {
	return n.nis[i].foldState(n.routerFold(i, statehash.Seed))
}

// routerFold folds router i into h as of the current boundary: its live
// state (router.Router.FoldState), and its residue as well while its own
// fault window can still open (fault.Plane.LiveFrom) — a step inside the
// window may read what a closed-window step writes first. Golden has no
// fault, so every fold it records is a live one, and so is a faulty run's
// once its plane is quiescent: Frontier.retire compares like with like.
func (n *Network) routerFold(i int, h uint64) uint64 {
	r := n.routers[i]
	h = r.FoldState(h)
	if n.plane.LiveFrom(n.cycle, i) {
		h = r.FoldResidue(h)
	}
	return h
}

// StartRecording attaches a fresh golden signal transcript to the
// network: every subsequent Step appends its inter-node signal traffic
// and per-node state folds until StopRecording. cycles is the expected
// window length; with the network's offered load it sizes the transcript
// (newRecording). Recording is meant for the fault-free golden
// continuation only; it is never cloned into forks.
func (n *Network) StartRecording(cycles int) {
	n.rec = newRecording(n.cycle, n.mesh, cycles, n.offeredLoad())
}

// SettleRecording steps the network, injection off, until the attached
// transcript has settled — its last cycle left the network a fixed
// point: no signal anywhere, no node's fold changed — or the cycle
// reaches limit, and detaches it. A settled transcript covers every
// later cycle as well (see the top of this file) and is returned; one
// that did not settle in time is of no use past its last cycle, and nil
// is.
func (n *Network) SettleRecording(limit int64) *Recording {
	rec := n.SettleSegment(limit)
	if rec != nil {
		rec.index()
	}
	return rec
}

// SettleSegment is SettleRecording for the last segment of a transcript
// recorded in two: the settled segment is detached unindexed, for Join.
func (n *Network) SettleSegment(limit int64) *Recording {
	for !n.rec.settled && n.cycle < limit {
		n.Step()
	}
	if rec := n.DetachSegment(); rec.settled {
		return rec
	}
	return nil
}

// StopRecording detaches and returns the transcript (nil if none was
// attached), complete and indexed: what a Frontier reads.
func (n *Network) StopRecording() *Recording {
	rec := n.DetachSegment()
	if rec != nil {
		rec.index()
	}
	return rec
}

// DetachSegment detaches and returns the transcript (nil if none was
// attached) as it stands, unindexed: the first segment of a transcript
// recorded in two, which Join completes with the second.
func (n *Network) DetachSegment() *Recording {
	rec := n.rec
	n.rec = nil
	return rec
}

// Join appends later to rc and returns rc complete and indexed, as
// StopRecording returns a whole transcript. Both are unindexed segments
// (DetachSegment, SettleSegment) of one network's run recorded on two
// networks: later was started at the boundary where rc ends, on a network
// whose state there was the one rc's network reached (the caller checks
// the two fingerprints), and inside the injection phase, where no cycle
// settles — so every row and offset of the result is the one a single
// transcript over both would hold.
func (rc *Recording) Join(later *Recording) *Recording {
	if end := rc.start + int64(rc.Cycles()); later.start != end || later.nodes != rc.nodes {
		panic(fmt.Sprintf("sim: Join of a segment starting at cycle %d to one ending at %d", later.start, end))
	}
	shift := func(idx, more []int32) []int32 {
		base := idx[len(idx)-1]
		for _, v := range more[1:] {
			idx = append(idx, base+v)
		}
		return idx
	}
	rc.genIdx = shift(rc.genIdx, later.genIdx)
	rc.linkIdx = shift(rc.linkIdx, later.linkIdx)
	rc.credIdx = shift(rc.credIdx, later.credIdx)
	rc.sendIdx = shift(rc.sendIdx, later.sendIdx)
	rc.ejectIdx = shift(rc.ejectIdx, later.ejectIdx)
	rc.genNode = append(rc.genNode, later.genNode...)
	rc.gens = append(rc.gens, later.gens...)
	rc.linkSrc = append(rc.linkSrc, later.linkSrc...)
	rc.links = append(rc.links, later.links...)
	rc.creditSrc = append(rc.creditSrc, later.creditSrc...)
	rc.credits = append(rc.credits, later.credits...)
	rc.sends = append(rc.sends, later.sends...)
	rc.ejectNode = append(rc.ejectNode, later.ejectNode...)
	rc.ejectFlits = append(rc.ejectFlits, later.ejectFlits...)
	rc.folds = append(rc.folds, later.folds...)
	rc.foldSum = append(rc.foldSum, later.foldSum...)
	rc.busy = append(rc.busy, later.busy...)
	rc.busyN = append(rc.busyN, later.busyN...)
	rc.injectEnd = min(rc.injectEnd, later.injectEnd)
	rc.settled = later.settled
	rc.index()
	return rc
}

// index builds the node-major indices of the finished transcript and
// drops the key arrays they stand in for.
func (rc *Recording) index() {
	emitter := func(cycle, keys []int32) nodeIndex {
		return indexBy(rc.nodes, cycle, func(k int) int32 { return keys[k] })
	}
	rc.by = [views]nodeIndex{
		byGen:        emitter(rc.genIdx, rc.genNode),
		byLinkFrom:   emitter(rc.linkIdx, rc.linkSrc),
		byCreditFrom: emitter(rc.credIdx, rc.creditSrc),
		bySend:       emitter(rc.sendIdx, rc.sends),
		byEject:      emitter(rc.ejectIdx, rc.ejectNode),
		byLinkTo:     indexBy(rc.nodes, rc.linkIdx, func(k int) int32 { return rc.links[k].dst }),
		byCreditTo:   indexBy(rc.nodes, rc.credIdx, func(k int) int32 { return rc.credits[k].dst }),
	}
	rc.genNode, rc.linkSrc, rc.creditSrc, rc.sends = nil, nil, nil, nil
}
