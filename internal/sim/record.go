package sim

import (
	"math"
	"slices"

	"nocalert/internal/flit"
	"nocalert/internal/statehash"
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

// Every event kind is stored as two parallel flat arrays: the node that
// emitted the event (generating NI, sending router, ejecting NI) in a
// dense []int32, and the rest of the event beside it. A cycle's events
// are appended in ascending emitter order (Step walks NIs and stepped
// routers by id), so one cycle's slice of the key array is sorted and
// the frontier finds a member's records — and those of its four
// neighbours — by binary search over a few cache lines (span) instead of
// walking the cycle's whole segment.

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
	genNode    []int32
	gens       []recGen
	linkSrc    []int32
	links      []recLink
	creditSrc  []int32
	credits    []recCredit
	sends      []int32
	ejectNode  []int32
	ejectFlits []flit.Flit
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
	// idle and body are closeCycle's memory of the previous boundary: which
	// nodes were wholly idle there, and every node's fold less its traffic
	// generator (nodeBody).
	idle []bool
	body []uint64

	// prefix offsets, one entry per closed cycle plus the open tail. They
	// are running event counts as well: a cycle's generation, send and
	// ejection totals are differences of neighbouring entries.
	genIdx, linkIdx, credIdx, sendIdx, ejectIdx []int32
}

func newRecording(start int64, nodes, cycles int) *Recording {
	r := &Recording{start: start, nodes: nodes, injectEnd: math.MaxInt64, idle: make([]bool, nodes), body: make([]uint64, nodes)}
	r.genIdx = append(make([]int32, 0, cycles+1), 0)
	r.linkIdx = append(make([]int32, 0, cycles+1), 0)
	r.credIdx = append(make([]int32, 0, cycles+1), 0)
	r.sendIdx = append(make([]int32, 0, cycles+1), 0)
	r.ejectIdx = append(make([]int32, 0, cycles+1), 0)
	r.folds = make([]uint64, 0, cycles*nodes)
	r.foldSum = make([]uint64, 0, cycles)
	r.busy = make([]uint64, 0, cycles*r.busyWords())
	r.busyN = make([]int32, 0, cycles)
	return r
}

// Cycles returns the number of fully recorded cycles.
func (rc *Recording) Cycles() int { return len(rc.genIdx) - 1 }

// Start returns the first recorded cycle.
func (rc *Recording) Start() int64 { return rc.start }

// covers reports whether cycle t is inside the recorded range.
func (rc *Recording) covers(t int64) bool {
	return t >= rc.start && (rc.settled || t < rc.start+int64(rc.Cycles()))
}

// seg returns the [lo,hi) event range of cycle t in the given prefix
// index: empty past the stored cycles of a settled transcript. t must be
// a covered cycle.
func (rc *Recording) seg(idx []int32, t int64) (int, int) {
	c := int(t - rc.start)
	if c >= rc.Cycles() {
		return 0, 0
	}
	return int(idx[c]), int(idx[c+1])
}

// span returns the [lo,hi) range of node's events inside keys, one
// cycle's ascending slice of an event key array: a lower-bound binary
// search down to a window of 16 keys (one cache line, where a predictable
// linear scan beats further halving), then the run of equal keys (a
// router emits at most one flit and one credit mask per link, an NI a
// handful of ejections, so the run is short).
func span(keys []int32, node int) (int, int) {
	k := int32(node)
	lo, hi := 0, len(keys)
	for hi-lo > 16 {
		if mid := int(uint(lo+hi) >> 1); keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && keys[lo] < k {
		lo++
	}
	hi = lo
	for hi < len(keys) && keys[hi] == k {
		hi++
	}
	return lo, hi
}

// of returns the [lo,hi) range of node's events of cycle t in one event
// kind, given by its key array and prefix index.
func (rc *Recording) of(keys, idx []int32, t int64, node int) (int, int) {
	lo, hi := rc.seg(idx, t)
	a, b := span(keys[lo:hi], node)
	return lo + a, lo + b
}

// around returns the [lo,hi) range of cycle t's events, in one event
// kind, whose emitter's id lies within width of node's: in a mesh of that
// width, node itself and every neighbour of it.
func (rc *Recording) around(keys, idx []int32, t int64, node, width int) (int, int) {
	lo, hi := rc.seg(idx, t)
	a, _ := span(keys[lo:hi], node-width)
	b := a
	for lo+b < hi && int(keys[lo+b]) <= node+width {
		b++
	}
	return lo + a, lo + b
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
// ranges and decides whether the network has settled.
//
// A node that was wholly idle at the previous boundary — router inert
// and outside its own fault window (an upset may rewrite a register of an
// inert router and leave it inert), nothing staged, NI empty — and is
// wholly idle now cannot have changed, but for its traffic generator: its
// router had nothing to do, its NI had nothing to do, a packet it
// generated would be queued or on its way in, and anything a neighbour
// staged into it would show now. Only the generator's term of its fold is
// computed, on top of the body kept from the last boundary it was not
// idle at.
func (rc *Recording) closeCycle(n *Network) {
	c := rc.Cycles()
	var sum uint64
	for i, r := range n.routers {
		ni := n.nis[i]
		idle := r.Inert() && !ni.busy() && len(ni.credits) == 0 && !n.plane.LiveFor(n.cycle-1, i)
		if !idle || !rc.idle[i] {
			rc.body[i] = n.nodeBody(i)
		}
		fold := ni.gen.FoldState(rc.body[i])
		rc.folds = append(rc.folds, fold)
		sum += foldTerm(i, fold)
		rc.idle[i] = idle
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

// Payload bytes per event of the transcript's flat storage; every event
// has a 4-byte key beside it (record_test.go holds these to
// unsafe.Sizeof).
const (
	recGenBytes    = 24  // recGen
	recLinkBytes   = 112 // recLink (embedded flit value)
	recCreditBytes = 12  // recCredit
	recEjectBytes  = 104 // flit.Flit
)

// ApproxFootprintBytes estimates the memory the transcript retains:
// flat event storage at capacity (keys and payloads), the prefix
// indices, the per-node fold table with its row digests, the busy-NI
// bits with their row counts and closeCycle's idle flags and fold
// bodies. Like Network.ApproxFootprintBytes it is a deterministic
// accounting estimate, not a heap measurement.
func (rc *Recording) ApproxFootprintBytes() int64 {
	if rc == nil {
		return 0
	}
	b := int64(cap(rc.gens))*recGenBytes +
		int64(cap(rc.links))*recLinkBytes +
		int64(cap(rc.credits))*recCreditBytes +
		int64(cap(rc.ejectFlits))*recEjectBytes +
		int64(cap(rc.folds)+cap(rc.foldSum)+cap(rc.busy)+cap(rc.body))*8 +
		int64(cap(rc.idle))
	b += int64(cap(rc.genNode)+cap(rc.linkSrc)+cap(rc.creditSrc)+cap(rc.sends)+cap(rc.ejectNode)+cap(rc.busyN)) * 4
	b += int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx)) * 4
	return b
}

// nodeFold folds node i's full mutable state — router registers,
// buffers, staged arrivals, plus the NI — into one hash. It is the
// per-node slice of Network.foldBody's enumeration: a faulty run's node
// whose fold equals the golden recording's at the same boundary holds,
// up to hash collision, exactly the golden state.
func (n *Network) nodeFold(i int) uint64 {
	return n.nis[i].gen.FoldState(n.nodeBody(i))
}

// nodeBody is nodeFold short of its last term, the NI's traffic
// generator: the only part of a node that changes while the node has
// nothing to do.
func (n *Network) nodeBody(i int) uint64 {
	return n.nis[i].foldBody(n.routers[i].FoldState(statehash.Seed))
}

// StartRecording attaches a fresh golden signal transcript to the
// network: every subsequent Step appends its inter-node signal traffic
// and per-node state folds until StopRecording. cycles sizes the
// per-cycle indices (the expected window length). Recording is meant
// for the fault-free golden continuation only; it is never cloned into
// forks.
func (n *Network) StartRecording(cycles int) {
	n.rec = newRecording(n.cycle, len(n.routers), cycles)
}

// SettleRecording steps the network, injection off, until the attached
// transcript has settled — its last cycle left the network a fixed
// point: no signal anywhere, no node's fold changed — or the cycle
// reaches limit, and detaches it. A settled transcript covers every
// later cycle as well (see the top of this file) and is returned; one
// that did not settle in time is of no use past its last cycle, and nil
// is.
func (n *Network) SettleRecording(limit int64) *Recording {
	for !n.rec.settled && n.cycle < limit {
		n.Step()
	}
	if rec := n.StopRecording(); rec.settled {
		return rec
	}
	return nil
}

// StopRecording detaches and returns the transcript (nil if none was
// attached).
func (n *Network) StopRecording() *Recording {
	rec := n.rec
	n.rec = nil
	return rec
}
