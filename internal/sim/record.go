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
// The record is value-based throughout (no pointer into the golden
// network), so replaying it cannot alias the golden network's state, and it
// covers inter-node signals only: everything that happens strictly inside
// one node (buffer reads, arbitration, the NI's own credit maturation) is
// recomputed, never recorded. A flit on a fault-free link is its packet's
// but for its sequence number, its VC and its error-detecting code, so a
// link event holds those and an index into a per-transcript packet table
// (recLink, recPacket), and a reader rebuilds the flit (linkFlit). Every
// flit recordLink stores is rebuilt and compared with the one on the wire
// at once: a flit a fault altered, or one with a field the encoding cannot
// hold, leaves the transcript broken, and a broken transcript is never
// handed out (the campaign then runs without one). An ejection is stored as
// the flit value, since readers are handed pointers to it.

// Every event kind is stored cycle-major in a flat payload array, a
// cycle's events in ascending emitter order (Step walks NIs and stepped
// routers by id), with per-cycle prefix offsets beside it. While the
// transcript is being recorded a dense []int32 key array names each
// event's emitter (generating NI, sending router, ejecting NI). Once it
// is complete StopRecording turns the keys into node-major indices
// (nodeIndex): per emitter the ids of its generations, link flits, credit
// masks, send strobes and ejections, and per destination the ids of the
// link and credit events that land on it, and per event kind each event's
// cycle. An id is an event's position in its payload array, so ids ascend
// with cycle, and whoever reads one node's events cycle after cycle — the
// frontier, for its members and the nodes it replays — keeps a cursor into
// the node's list and finds a cycle's events next to the last cycle's,
// without searching, and a cycle between two of the node's events empty
// by comparing it with their cycles (Recording.events). The key arrays
// nothing reads any more are dropped.

// recGen is one packet generation event: the keyed NI drew a Bernoulli
// hit at the record's cycle. The RNG-derived fields are stored so a
// joining node can be replayed without a packet id of its own.
type recGen struct {
	class   int32
	dest    int32
	id      uint64
	payload uint64
}

// recLink is one flit crossing the link from the keyed router to dst,
// landing on dst's input port dstPort: its packet, as an index into the
// transcript's packet table, and what the flit does not share with the
// rest of its packet — its place in the packet, the VC it travels on and
// its error-detecting code. linkFlit rebuilds the flit from it.
type recLink struct {
	dst     int32
	pkt     int32
	edc     uint32
	seq     uint16
	dstPort uint8
	vc      uint8
}

// recPacket is one entry of a transcript's packet table: the fields every
// flit of the packet carries unchanged on a fault-free wire, taken from
// the first of its flits to cross a link. payload is the packet's base
// payload; flit seq carries payload+seq.
type recPacket struct {
	id, payload   uint64
	injectedAt    int64
	src, dest     int32
	destX, destY  int32
	class, length int32
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
	// index. sends has a key only; an ejection's payload is the flit, a
	// link's names its packet in pkts.
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
	// pkts is the packet table the link events index, in the order the
	// packets first crossed a link. While recording, pktSlot finds a
	// packet's entry by id: pktSlot[id-pktBase] is its index plus one, 0
	// for a packet not yet seen. It goes with the key arrays.
	pkts    []recPacket
	pktSlot []int32
	pktBase uint64
	// broken reports that a recorded link flit does not rebuild from its
	// event (linkFlit). Nothing hands a broken transcript to a reader.
	broken bool
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
// linkIdx, …), which say where in the ids a cycle begins, and at[k] is
// event k's cycle, counted from the transcript's start (the two views of
// one kind share it).
type nodeIndex struct {
	off   []int32
	ids   []int32
	cycle []int32
	at    []int32
}

// eventCycles returns each event's cycle, counted from the transcript's
// start, under the given per-cycle prefix offsets.
func eventCycles(cycle []int32) []int32 {
	at := make([]int32, cycle[len(cycle)-1])
	for c := 0; c+1 < len(cycle); c++ {
		for k := cycle[c]; k < cycle[c+1]; k++ {
			at[k] = int32(c)
		}
	}
	return at
}

// indexBy builds the node-major index of count events, key(k) naming the
// node event k belongs to, by one counting sort (stable, so every node's
// ids ascend). at is the kind's eventCycles.
func indexBy(nodes int, cycle, at []int32, key func(k int) int32) nodeIndex {
	count := int(cycle[len(cycle)-1])
	x := nodeIndex{off: make([]int32, nodes+1), ids: make([]int32, count), cycle: cycle, at: at}
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
	// The window's packets, and those already on their way at its start:
	// about a mean packet latency's worth, under two cycles per hop of the
	// mesh's diameter.
	r.pkts = make([]recPacket, 0, gens+int(load.pkts*float64(2*(mesh.W+mesh.H))))
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

// cursor is a reader's place in one node's id list of one view
// (Recording.events): pos is a position in the list, and the n cycles from
// cycle lo on are the ones strictly between the events either side of it,
// list[pos-1] and list[pos] — from the transcript's start where there is
// no list[pos-1], for ever where there is no list[pos]. No event of the
// list falls on them. The zero cursor is a fresh one: at the list's start,
// with no such cycle.
type cursor struct {
	pos int32
	n   uint32
	lo  int64
}

// events returns the ids of node's events of cycle t in one view (empty
// past the stored cycles of a settled transcript, like seg). cur is the
// reader's cursor for this view and node, which events leaves just past
// the node's events of cycle t. A cycle between the events either side of
// the cursor has none, and costs the one compare that says so — the common
// lookup, since a node has events on few of the cycles it is asked about.
// A reader that asks for non-decreasing cycles — and every reader of the
// frontier does, node by node — otherwise pays for the events it passes
// over and nothing else; a cursor found ahead of cycle t is put right by
// binary search.
func (rc *Recording) events(view int, cur *cursor, t int64, node int) []int32 {
	if uint64(t-cur.lo) < uint64(cur.n) {
		return nil
	}
	return rc.seek(view, cur, t, node)
}

// seek is events past its compare with the cursor's bounds: kept apart so
// that the compare inlines into the reader.
func (rc *Recording) seek(view int, cur *cursor, t int64, node int) []int32 {
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
	a := int(cur.pos)
	if a > 0 && list[a-1] >= lo {
		a, _ = slices.BinarySearch(list, lo)
	}
	for a < len(list) && list[a] < lo {
		a++
	}
	b := a
	for b < len(list) && list[b] < hi {
		b++
	}
	cur.pos, cur.lo, cur.n = int32(b), rc.start, math.MaxUint32
	if b > 0 {
		cur.lo = rc.start + int64(x.at[list[b-1]]) + 1
	}
	if b < len(list) {
		cur.n = uint32(rc.start + int64(x.at[list[b]]) - cur.lo)
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
// port dstPort, entering its packet in the packet table the first time.
// An event that does not rebuild to f breaks the transcript.
func (rc *Recording) recordLink(src, dst, dstPort int, f *flit.Flit) {
	slot := rc.slotOf(f.PacketID)
	if *slot == 0 {
		rc.pkts = append(rc.pkts, recPacket{
			id: f.PacketID, payload: f.Payload - uint64(f.Seq), injectedAt: f.InjectedAt,
			src: int32(f.Src), dest: int32(f.Dest), destX: int32(f.DestX), destY: int32(f.DestY),
			class: int32(f.Class), length: int32(f.Length),
		})
		*slot = int32(len(rc.pkts))
	}
	l := recLink{dst: int32(dst), pkt: *slot - 1, edc: f.EDC, seq: uint16(f.Seq), dstPort: uint8(dstPort), vc: uint8(f.VC)}
	if rc.linkFlit(&l) != *f {
		rc.broken = true
	}
	rc.linkSrc = append(rc.linkSrc, int32(src))
	rc.links = append(rc.links, l)
}

// slotOf returns packet id's entry in pktSlot, widening the lookup to
// reach it. No fault site holds a packet id, so the lookup spans the ids
// of the packets in flight over the recording, from the oldest one on.
func (rc *Recording) slotOf(id uint64) *int32 {
	i := id - rc.pktBase
	if i >= uint64(len(rc.pktSlot)) { // an id below pktBase wraps here too
		if len(rc.pktSlot) == 0 {
			rc.pktBase = id
		}
		if id < rc.pktBase { // at least doubled, as append grows it upwards
			more := min(max(rc.pktBase-id, uint64(len(rc.pktSlot))), rc.pktBase)
			rc.pktSlot = append(make([]int32, more, more+uint64(len(rc.pktSlot))), rc.pktSlot...)
			rc.pktBase -= more
		}
		if i = id - rc.pktBase; i >= uint64(len(rc.pktSlot)) {
			rc.pktSlot = append(rc.pktSlot, make([]int32, i+1-uint64(len(rc.pktSlot)))...)
		}
	}
	return &rc.pktSlot[i]
}

// linkFlit rebuilds the flit of link event l.
func (rc *Recording) linkFlit(l *recLink) flit.Flit {
	p := &rc.pkts[l.pkt]
	seq := int(l.seq)
	return flit.Flit{
		PacketID:   p.id,
		Seq:        seq,
		Kind:       flit.KindAt(seq, int(p.length)),
		VC:         int(l.vc),
		Src:        int(p.src),
		Dest:       int(p.dest),
		DestX:      int(p.destX),
		DestY:      int(p.destY),
		Class:      int(p.class),
		Length:     int(p.length),
		Payload:    p.payload + uint64(seq),
		EDC:        l.edc,
		InjectedAt: p.injectedAt,
	}
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

// Payload bytes per event of the transcript's flat storage, and per entry
// of its packet table: the structs' sizes on the target (a link event is
// 16 bytes and a packet 48 on amd64 and 386 alike; an ejection's flit.Flit
// is 104 bytes on amd64, 64 on 386).
const (
	recGenBytes    = int64(unsafe.Sizeof(recGen{}))
	recLinkBytes   = int64(unsafe.Sizeof(recLink{}))
	recPacketBytes = int64(unsafe.Sizeof(recPacket{}))
	recCreditBytes = int64(unsafe.Sizeof(recCredit{}))
	recEjectBytes  = int64(unsafe.Sizeof(flit.Flit{}))
)

// ApproxFootprintBytes estimates the memory the transcript retains:
// flat event storage at capacity (payloads and what key arrays there
// are), the packet table (and its lookup by id while recording), the
// node-major indices, the per-cycle prefix offsets, the per-node fold
// table with its row digests and the busy-NI bits with their row counts.
// Like Network.ApproxFootprintBytes it is a deterministic accounting
// estimate, not a heap measurement.
func (rc *Recording) ApproxFootprintBytes() int64 {
	if rc == nil {
		return 0
	}
	b := int64(cap(rc.gens))*recGenBytes +
		int64(cap(rc.links))*recLinkBytes +
		int64(cap(rc.pkts))*recPacketBytes +
		int64(cap(rc.credits))*recCreditBytes +
		int64(cap(rc.ejectFlits))*recEjectBytes +
		int64(cap(rc.folds)+cap(rc.foldSum)+cap(rc.busy))*8
	b += int64(cap(rc.genNode)+cap(rc.linkSrc)+cap(rc.creditSrc)+cap(rc.sends)+cap(rc.ejectNode)+cap(rc.busyN)+cap(rc.pktSlot)) * 4
	b += int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx)) * 4
	for i := range rc.by {
		b += int64(cap(rc.by[i].off)+cap(rc.by[i].ids)) * 4
	}
	// The event cycles, one array a kind: the inbox views share theirs with
	// the emitters'.
	for i := byGen; i <= byEject; i++ {
		b += int64(cap(rc.by[i].at)) * 4
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
// is, as for a broken one.
func (n *Network) SettleRecording(limit int64) *Recording {
	return n.SettleSegment(limit).usable()
}

// SettleSegment is SettleRecording for the last segment of a transcript
// recorded in two: the settled segment is detached unindexed, and
// possibly broken, for Join.
func (n *Network) SettleSegment(limit int64) *Recording {
	for !n.rec.settled && n.cycle < limit {
		n.Step()
	}
	if rec := n.DetachSegment(); rec.settled {
		return rec
	}
	return nil
}

// StopRecording detaches and returns the transcript, complete and
// indexed: what a Frontier reads. It returns nil if none was attached or
// the transcript is broken.
func (n *Network) StopRecording() *Recording {
	return n.DetachSegment().usable()
}

// usable returns rc indexed, or nil for a missing or broken transcript.
func (rc *Recording) usable() *Recording {
	if rc == nil || rc.broken {
		return nil
	}
	rc.index()
	return rc
}

// DetachSegment detaches and returns the transcript (nil if none was
// attached) as it stands, unindexed and possibly broken: the first segment
// of a transcript recorded in two, which Join completes with the second.
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
// transcript over both would hold. later's packet table is merged into
// rc's: a packet both saw keeps rc's entry, which must be later's too. A
// broken segment, or a packet the two disagree on, makes the result nil.
func (rc *Recording) Join(later *Recording) *Recording {
	if end := rc.start + int64(rc.Cycles()); later.start != end || later.nodes != rc.nodes {
		panic(fmt.Sprintf("sim: Join of a segment starting at cycle %d to one ending at %d", later.start, end))
	}
	if rc.broken || later.broken {
		return nil
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
	renum := make([]int32, len(later.pkts))
	for j, p := range later.pkts {
		slot := rc.slotOf(p.id)
		if *slot == 0 {
			rc.pkts = append(rc.pkts, p)
			*slot = int32(len(rc.pkts))
		} else if rc.pkts[*slot-1] != p {
			rc.broken = true
		}
		renum[j] = *slot - 1
	}
	for _, l := range later.links {
		l.pkt = renum[l.pkt]
		rc.links = append(rc.links, l)
	}
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
	return rc.usable()
}

// index builds the node-major indices of the finished transcript and
// drops the key arrays they stand in for, and the packet lookup.
func (rc *Recording) index() {
	emitter := func(cycle, keys []int32) nodeIndex {
		return indexBy(rc.nodes, cycle, eventCycles(cycle), func(k int) int32 { return keys[k] })
	}
	linkFrom, creditFrom := emitter(rc.linkIdx, rc.linkSrc), emitter(rc.credIdx, rc.creditSrc)
	rc.by = [views]nodeIndex{
		byGen:        emitter(rc.genIdx, rc.genNode),
		byLinkFrom:   linkFrom,
		byCreditFrom: creditFrom,
		bySend:       emitter(rc.sendIdx, rc.sends),
		byEject:      emitter(rc.ejectIdx, rc.ejectNode),
		byLinkTo:     indexBy(rc.nodes, rc.linkIdx, linkFrom.at, func(k int) int32 { return rc.links[k].dst }),
		byCreditTo:   indexBy(rc.nodes, rc.credIdx, creditFrom.at, func(k int) int32 { return rc.credits[k].dst }),
	}
	rc.genNode, rc.linkSrc, rc.creditSrc, rc.sends = nil, nil, nil, nil
	rc.pktSlot, rc.pktBase = nil, 0
}
