// Package forever implements the ForEVeR fault-detection baseline
// (Parikh & Bertacco, MICRO 2011) the paper compares NoCAlert against
// (§5). ForEVeR detects faults with three cooperating techniques:
//
//  1. A lightweight checker network, assumed 100% reliable, that
//     notifies each destination ahead of time of incoming flits. The
//     destination increments a counter per notified flit and decrements
//     it per received flit.
//  2. Epoch timers: time is cut into fixed epochs (1,500 cycles in the
//     paper's tuning); at each epoch boundary, every destination whose
//     counter never touched zero during the epoch raises a flag.
//  3. The Allocation Comparator (Shamshiri et al., ITC 2011): a small
//     real-time monitor of the router allocators that flags a subset of
//     invalid arbiter operations immediately.
//
// The epoch mechanism quantizes detection latency to thousands of
// cycles — the property Figure 7 contrasts with NoCAlert's same-cycle
// assertions — and its tuning trades false positives against latency.
package forever

import (
	"fmt"

	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/sim"
)

// Options configures the ForEVeR monitor.
type Options struct {
	// Epoch is the epoch length in cycles. The paper sets 1,500 for its
	// 8×8 mesh — "the shortest period that did not yield excessive
	// false positives".
	Epoch int64
	// HopLatency is the per-hop latency of the checker network in
	// cycles. The checker network is much faster than the data network
	// (single-flit messages, no VC allocation).
	HopLatency int64
}

// DefaultOptions returns the paper's tuning.
func DefaultOptions() Options { return Options{Epoch: 1500, HopLatency: 1} }

func (o Options) withDefaults() Options {
	if o.Epoch <= 0 {
		o.Epoch = 1500
	}
	if o.HopLatency <= 0 {
		o.HopLatency = 1
	}
	return o
}

// notif is an in-flight checker-network notification.
type notif struct {
	dest   int
	amount int
	at     int64
}

// Monitor is the ForEVeR detection fabric. It attaches to a network as
// a sim.Monitor and implements sim.CloneableMonitor so campaign forks
// preserve its in-flight notifications and counters.
//
// The end-to-end state is kept per destination and a destination's part
// of it is a function of that node's notifications and ejections alone:
// its counter, its zero-crossing flag, the reassembly of the packets
// addressed to it (the order check reaches a flit only once its
// destination field, which the EDC covers, names the ejecting node, so a
// packet's entry is only ever touched there). A monitor can therefore
// follow a golden one (Follow): it keeps the state of the nodes it is
// told to track, and everyone else's is the golden monitor's.
type Monitor struct {
	sim.BaseMonitor
	opts Options
	cfg  *router.Config

	counters []int64
	zeroSeen []bool
	nonzero  int     // how many counters are not zero
	pending  []notif // unordered; matured entries are consumed each cycle
	// lastSeq tracks in-progress packet reassembly per destination for
	// the end-to-end order check (packet id → last seen sequence).
	lastSeq map[uint64]int

	// detections are the epoch-boundary, end-to-end and AC detection
	// cycles in the order they were raised (capped), detNodes the node
	// each was raised at.
	detections []int64
	detNodes   []int32

	// hist is the per-node record a golden monitor keeps for followers.
	hist *history

	// A follower's state: the golden monitor it follows, the nodes it
	// tracks, per node the boundary it tracks it from (plus one; zero for
	// a node it does not track) and how much of the node's recorded
	// arrivals it has consumed, and the boundary it stands at.
	gold    *Monitor
	tracked []int32
	since   []int64
	arrived []int32
	now     int64
}

// NewMonitor returns a ForEVeR monitor for networks built on cfg.
func NewMonitor(cfg *router.Config, opts Options) *Monitor {
	nodes := cfg.Mesh.Nodes()
	m := &Monitor{
		opts:     opts.withDefaults(),
		cfg:      cfg,
		counters: make([]int64, nodes),
		zeroSeen: make([]bool, nodes),
	}
	for i := range m.zeroSeen {
		m.zeroSeen[i] = true // counters start at zero
	}
	return m
}

// PacketInjected implements sim.Monitor: the source's checker-network
// interface sends a notification carrying the packet's flit count to
// the destination, arriving after the checker network's hop latency. A
// follower has every notification from the golden record (the traffic
// process does not depend on the fault) and ignores the call.
func (m *Monitor) PacketInjected(cycle int64, node int, p *flit.Packet) {
	if m.gold != nil {
		return
	}
	hops := int64(m.cfg.Mesh.HopDistance(node, p.Dest)) + 1
	nt := notif{dest: p.Dest, amount: p.Length, at: cycle + hops*m.opts.HopLatency}
	m.pending = append(m.pending, nt)
	if m.hist != nil {
		m.hist.send(cycle, nt.at)
	}
}

// add moves node's counter, keeping the count of nonzero ones.
func (m *Monitor) add(node int, delta int64) {
	was := m.counters[node]
	m.counters[node] = was + delta
	switch {
	case was == 0 && delta != 0:
		m.nonzero++
	case was != 0 && was+delta == 0:
		m.nonzero--
	}
}

// FlitEjected implements sim.Monitor: the destination decrements its
// expectation counter — misdelivered flits decrement the wrong node's
// counter, driving it negative, which the epoch check catches — and
// runs ForEVeR's end-to-end checker: a reassembly check at the
// destination that flags wrong-destination flits, EDC failures and
// intra-packet order violations immediately.
func (m *Monitor) FlitEjected(cycle int64, node int, f *flit.Flit) {
	if m.gold != nil && m.since[node] == 0 {
		panic(fmt.Sprintf("forever: follower shown an ejection at node %d, which it does not track", node))
	}
	e := ejection{cycle: cycle, pkt: f.PacketID, seq: int32(f.Seq), tail: f.Kind.IsTail(), ok: f.Dest == node && f.EDCOK()}
	if m.hist != nil {
		m.hist.ejects[node] = append(m.hist.ejects[node], e)
	}
	m.add(node, -1)
	if !m.reassemble(&e) {
		m.flag(cycle, node)
	}
}

// reassemble runs the end-to-end check on one ejected flit — right
// destination, good EDC, and the reassembly order check: flits of a
// packet must arrive in sequence at their destination, beginning with
// the header flit — and reports whether it passed.
func (m *Monitor) reassemble(e *ejection) bool {
	if !e.ok {
		return false
	}
	if m.lastSeq == nil {
		m.lastSeq = make(map[uint64]int)
	}
	prev, begun := m.lastSeq[e.pkt]
	m.lastSeq[e.pkt] = int(e.seq)
	if e.tail {
		delete(m.lastSeq, e.pkt)
	}
	if begun {
		return int(e.seq) == prev+1
	}
	return e.seq == 0
}

// SignalsOnly implements sim.SignalsOnly: of a router's cycle the monitor
// reads the four request/grant banks and nothing of the pre-cycle
// snapshot, so a network that carries it alone takes none.
func (m *Monitor) SignalsOnly() {}

// RouterCycle implements sim.Monitor: the Allocation Comparator watches
// the allocators' request/grant interfaces for a grant without a
// request or a multi-hot grant — the invalid operations it was designed
// to flag. An arbiter that granted nothing can have done neither, and
// most of the twenty grant nothing on most cycles: the comparator reads
// the ones Signals.Granted names.
func (m *Monitor) RouterCycle(r *router.Router, s *router.Signals) {
	for g := s.Granted; !g.IsZero(); {
		var i int
		i, g = g.NextBit()
		rg := s.Bank(i / router.P)[i%router.P]
		if !(rg.Gnt &^ rg.Req).IsZero() || !rg.Gnt.AtMostOneHot() {
			m.flag(s.Cycle, r.ID())
			return
		}
	}
}

// EndCycle implements sim.Monitor: deliver matured notifications,
// track zero crossings, and run the epoch-boundary check. A follower
// does so for the nodes it tracks, their notifications maturing off the
// golden record.
func (m *Monitor) EndCycle(cycle int64) {
	boundary := (cycle+1)%m.opts.Epoch == 0
	if m.gold != nil {
		for _, d := range m.tracked {
			m.arrive(int(d), cycle)
			m.endNode(int(d), cycle, boundary)
		}
		m.now = cycle + 1
		return
	}
	if len(m.pending) > 0 {
		kept := m.pending[:0]
		for _, n := range m.pending {
			if n.at > cycle {
				kept = append(kept, n)
				continue
			}
			m.add(n.dest, int64(n.amount))
			if m.hist != nil {
				m.hist.arrivals[n.dest] = append(m.hist.arrivals[n.dest], arrival{cycle: cycle, amount: int32(n.amount)})
			}
		}
		m.pending = kept
	}
	for i := range m.counters {
		m.endNode(i, cycle, boundary)
	}
	if m.hist != nil && m.nonzero > 0 {
		m.hist.zeroFrom = cycle + 2 // boundary cycle+1 holds a nonzero counter
	}
}

// endNode is one node's share of EndCycle once its notifications have
// matured: note a zero crossing and, on an epoch boundary, flag a node
// that saw none and start its next epoch.
func (m *Monitor) endNode(i int, cycle int64, boundary bool) {
	if m.counters[i] == 0 {
		m.zeroSeen[i] = true
	}
	if boundary {
		if !m.zeroSeen[i] {
			m.flag(cycle, i)
		}
		m.zeroSeen[i] = m.counters[i] == 0
	}
}

// DetectionCap bounds the recorded detection list. Its first entry is
// exact regardless; only consumers walking Detections for later entries
// (e.g. the campaign's reconvergence tail lookup) must check the list
// stayed under the cap before trusting its completeness.
const DetectionCap = 64

func (m *Monitor) flag(cycle int64, node int) {
	if len(m.detections) < DetectionCap {
		m.detections = append(m.detections, cycle)
		m.detNodes = append(m.detNodes, int32(node))
	}
}

// PendingEmpty reports whether no checker-network notification is in
// flight. With injection stopped this is monotone once true; campaign
// fast-forward requires it before trusting a frozen network state,
// since a matured notification would bump a counter the epoch check
// reads. A follower answers for every destination, from the golden
// record.
func (m *Monitor) PendingEmpty() bool {
	if m.gold != nil {
		return m.gold.hist.pendingEmptyAt(m.now)
	}
	return len(m.pending) == 0
}

// Settled reports whether the monitor has nothing left to happen: no
// notification in flight and every counter at zero, as at the end of a
// fault-free run that delivered everything it announced.
func (m *Monitor) Settled() bool { return len(m.pending) == 0 && m.nonzero == 0 }

// firstBoundary returns the first epoch-boundary cycle at or after from:
// the smallest b >= from with (b+1)%epoch == 0.
func firstBoundary(from, epoch int64) int64 { return (from+epoch)/epoch*epoch - 1 }

// ProjectFrozenDetection computes when the epoch mechanism would first
// flag, given that from cycle `from` onward EndCycle runs with no
// pending notifications and counters that never change (a frozen
// network). It returns the first epoch-boundary detection cycle in
// [from, until), or -1 if none would fire — without mutating the
// monitor. Derivation against EndCycle: at the first boundary b1 the
// zero-crossing sweep has already ORed counters[i]==0 into zeroSeen, so
// a node flags iff its counter is nonzero and it never saw zero; the
// boundary then resets zeroSeen to counters[i]==0, so at b1+epoch (and
// every boundary after) a node flags iff its counter is nonzero. The
// caller passes `until` = the run's ForEVeR horizon (exclusive: the
// last simulated EndCycle is for cycle until-1). A follower, which must
// stand at boundary `from`, answers for every node: a node it does not
// track froze in the state the golden monitor had it in at `from`.
func (m *Monitor) ProjectFrozenDetection(from, until int64) int64 {
	b1 := firstBoundary(from, m.opts.Epoch)
	if b1 >= until {
		return -1
	}
	var unseen, nonzero bool // a node with a nonzero counter that saw no zero; any with a nonzero counter
	look := func(counter int64, zeroSeen bool) {
		if counter != 0 {
			nonzero = true
			unseen = unseen || !zeroSeen
		}
	}
	if m.gold == nil {
		for i, c := range m.counters {
			look(c, m.zeroSeen[i])
		}
	} else {
		for _, d := range m.tracked {
			look(m.counters[d], m.zeroSeen[d])
		}
		// From zeroFrom on every golden counter is zero and an untracked
		// node has nothing to flag.
		for d := 0; from < m.gold.hist.zeroFrom && d < len(m.counters); d++ {
			if m.since[d] == 0 {
				c, z, _ := m.gold.hist.replay(d, from, m.opts.Epoch, m.counters[d], m.zeroSeen[d], nil)
				look(c, z)
			}
		}
	}
	if unseen {
		return b1
	}
	if b2 := b1 + m.opts.Epoch; nonzero && b2 < until {
		return b2
	}
	return -1
}

// FirstDetectionAfter returns the first detection at or after cycle,
// or -1. (Epoch checks may legitimately fire before a campaign's
// injection point when the epoch is mistuned; campaigns key off the
// injection cycle.) A follower answers for every node: its own flags,
// and the golden monitor's for a node and cycle it was not tracking,
// up to the boundary it stands at.
func (m *Monitor) FirstDetectionAfter(cycle int64) int64 {
	first := int64(-1)
	for _, d := range m.detections {
		if d >= cycle {
			first = d
			break
		}
	}
	if m.gold == nil {
		return first
	}
	for i, d := range m.gold.detections {
		if d >= m.now || (first >= 0 && d >= first) {
			break
		}
		if s := m.since[m.gold.detNodes[i]]; d >= cycle && (s == 0 || d < s-1) {
			return d
		}
	}
	return first
}

// Detections returns the recorded detection cycles (capped at
// DetectionCap).
func (m *Monitor) Detections() []int64 { return m.detections }

// ClearDetections forgets past detections (campaigns call this right
// after forking so only post-injection flags count) while keeping the
// counter state.
func (m *Monitor) ClearDetections() {
	m.detections = m.detections[:0]
	m.detNodes = m.detNodes[:0]
}

// CloneMonitor implements sim.CloneableMonitor.
func (m *Monitor) CloneMonitor() sim.Monitor {
	c := &Monitor{
		opts:    m.opts,
		cfg:     m.cfg,
		nonzero: m.nonzero,
	}
	c.counters = append([]int64(nil), m.counters...)
	c.zeroSeen = append([]bool(nil), m.zeroSeen...)
	c.pending = append([]notif(nil), m.pending...)
	c.detections = append([]int64(nil), m.detections...)
	c.detNodes = append([]int32(nil), m.detNodes...)
	if m.lastSeq != nil {
		c.lastSeq = make(map[uint64]int, len(m.lastSeq))
		for k, v := range m.lastSeq {
			c.lastSeq[k] = v
		}
	}
	return c
}
