package forever

import "sort"

// Following: a faulty run stepped by a divergence frontier (sim.Frontier)
// shows its monitors only the nodes the fault has reached. A node it has
// not reached ejects what it ejects in the golden run, and every node is
// notified of what it is notified of in the golden run (packet
// generation does not depend on the fault), so the ForEVeR state of such
// a node is the golden monitor's at the same cycle. The golden monitor
// therefore keeps a per-node record of its run, and the faulty run's
// monitor follows it: it maintains the nodes it is told to track — caught
// up over the node's record from the state both monitors shared when the
// record began, then fed that node's ejections — and reads everyone
// else's flags and frozen state off the record.

// arrival is a notification maturing at a destination: EndCycle(cycle)
// added amount to its counter.
type arrival struct {
	cycle  int64
	amount int32
}

// ejection is what the end-to-end checker needs of one ejected flit.
type ejection struct {
	cycle int64
	pkt   uint64
	seq   int32
	tail  bool
	ok    bool // right destination and good EDC
}

// sent is one generated notification: the cycle it was generated on and
// the latest maturation cycle of it and everything generated before it.
type sent struct {
	gen, latest int64
}

// history is a golden monitor's per-node record from boundary start on.
type history struct {
	start int64
	// arrivals[d] and ejects[d] are what moved d's counter, in cycle order.
	arrivals [][]arrival
	ejects   [][]ejection
	// sent lists the notifications in generation order (those in flight at
	// start first, as generated before it).
	sent []sent
	// zeroFrom is the first boundary from which every counter is zero for
	// as long as the record runs: one past the last boundary that found a
	// nonzero counter anywhere.
	zeroFrom int64
}

// StartHistory makes the monitor keep, from the boundary it stands at
// (cycle, the next to be stepped), the per-node record a follower needs.
// A clone does not inherit the record.
func (m *Monitor) StartHistory(cycle int64) {
	nodes := len(m.counters)
	h := &history{start: cycle, zeroFrom: cycle, arrivals: make([][]arrival, nodes), ejects: make([][]ejection, nodes)}
	if m.nonzero > 0 {
		h.zeroFrom = cycle + 1
	}
	for _, n := range m.pending {
		h.send(cycle-1, n.at)
	}
	m.hist = h
}

// send records a notification generated on cycle gen that matures on
// cycle at.
func (h *history) send(gen, at int64) {
	if k := len(h.sent); k > 0 {
		at = max(at, h.sent[k-1].latest)
	}
	h.sent = append(h.sent, sent{gen: gen, latest: at})
}

// pendingEmptyAt reports whether no notification is in flight at boundary
// now: everything generated before it has matured by EndCycle(now-1).
func (h *history) pendingEmptyAt(now int64) bool {
	i := sort.Search(len(h.sent), func(i int) bool { return h.sent[i].gen >= now })
	return i == 0 || h.sent[i-1].latest < now
}

// replay advances node d's counter and zero-crossing flag from the
// record's start to boundary to, over the recorded events of cycles
// before it, and returns them with the number of arrivals consumed.
// Epoch flags the node would raise on the way are golden's and already
// recorded as such. onEject, when not nil, is shown each ejection.
func (h *history) replay(d int, to, epoch, counter int64, zeroSeen bool, onEject func(*ejection)) (int64, bool, int) {
	// coast carries the flag over cycles [from, until), during which the
	// counter does not move: a zero counter is seen at once; a nonzero
	// one leaves the flag alone unless an epoch boundary in the range
	// starts a new epoch without one.
	coast := func(from, until int64) {
		switch {
		case from >= until:
		case counter == 0:
			zeroSeen = true
		case firstBoundary(from, epoch) < until:
			zeroSeen = false
		}
	}
	ej, ar := h.ejects[d], h.arrivals[d]
	ei, ai := 0, 0
	at := h.start
	for {
		next := to
		if ei < len(ej) {
			next = min(next, ej[ei].cycle)
		}
		if ai < len(ar) {
			next = min(next, ar[ai].cycle)
		}
		coast(at, next)
		if next == to {
			return counter, zeroSeen, ai
		}
		// Cycle next: its ejections, then the arrivals its end matures;
		// the end's zero check is the first cycle of the next coast.
		for ; ei < len(ej) && ej[ei].cycle == next; ei++ {
			counter--
			if onEject != nil {
				onEject(&ej[ei])
			}
		}
		for ; ai < len(ar) && ar[ai].cycle == next; ai++ {
			counter += int64(ar[ai].amount)
		}
		at = next
	}
}

// ApproxHistoryBytes estimates the memory the monitor's per-node record
// retains (zero without one); like the other Approx* footprints it
// counts capacities, not the heap.
func (m *Monitor) ApproxHistoryBytes() int64 {
	h := m.hist
	if h == nil {
		return 0
	}
	b := int64(cap(h.sent))*16 + int64(len(h.arrivals))*2*24 // and a slice header per node and list
	for d := range h.arrivals {
		b += int64(cap(h.arrivals[d]))*16 + int64(cap(h.ejects[d]))*24
	}
	return b
}

// Follow makes m a follower of golden, which must have kept a record
// since the boundary m stands at and must not be stepped any more. m
// tracks no node yet. From here on FirstDetectionAfter,
// ProjectFrozenDetection and PendingEmpty answer as a monitor shown
// every event of the run would, provided m is shown each cycle's end,
// told (TrackNode) of a node before the first cycle on which the node's
// ejections are not golden's, and shown every ejection at a tracked
// node.
func (m *Monitor) Follow(golden *Monitor) {
	if golden.hist == nil {
		panic("forever: Follow of a monitor that kept no history")
	}
	m.gold, m.now = golden, golden.hist.start
	m.pending = nil // in the record, like every later notification
	m.since = make([]int64, len(m.counters))
	m.arrived = make([]int32, len(m.counters))
	m.tracked = m.tracked[:0]
}

// TrackNode implements sim.NodeTracker: the follower brings node's
// state — counter, zero-crossing flag, packets under reassembly — from
// the record's start up to the boundary it stands at over golden's
// record of the node, and maintains it from there on.
func (m *Monitor) TrackNode(node int) {
	if m.gold == nil {
		panic("forever: TrackNode on a monitor that follows none")
	}
	if m.since[node] != 0 {
		return
	}
	c, z, consumed := m.gold.hist.replay(node, m.now, m.opts.Epoch, m.counters[node], m.zeroSeen[node],
		func(e *ejection) { m.reassemble(e) })
	m.add(node, c-m.counters[node])
	m.zeroSeen[node] = z
	m.arrived[node] = int32(consumed)
	m.since[node] = m.now + 1
	m.tracked = append(m.tracked, int32(node))
}

// arrive matures node's recorded notifications of cycle.
func (m *Monitor) arrive(node int, cycle int64) {
	ar := m.gold.hist.arrivals[node]
	i := int(m.arrived[node])
	for ; i < len(ar) && ar[i].cycle <= cycle; i++ {
		m.add(node, int64(ar[i].amount))
	}
	m.arrived[node] = int32(i)
}
