package golden

import (
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
)

// TimelinePoint is the golden run's recorded summary of one cycle
// boundary: the full network state fingerprint plus the cheap counters
// a faulty run compares first (the precheck rejects almost every
// non-matching cycle for the cost of three integer compares) and the
// hash of the post-fork ejection history up to the boundary.
type TimelinePoint struct {
	// State is the network's full state fingerprint (sim.Network
	// Fingerprint) at the boundary.
	State uint64
	// EjectHash folds the post-fork ejection history observed by the
	// boundary (EjectionsHash over the post-fork prefix).
	EjectHash uint64
	// Ejections is the number of post-fork ejections by the boundary.
	Ejections int
	// FlitsInjected and FlitsEjected are the network's cumulative flit
	// counters at the boundary.
	FlitsInjected, FlitsEjected int64
	// NextPkt is the id the next generated packet would take.
	NextPkt uint64
}

// Timeline is the golden run's per-cycle state record, stored alongside
// the ejection Log. A faulty run whose fault plane has gone quiescent
// compares its own fingerprint against the recorded point for the same
// cycle; a match (state hash, ejection count and ejection-prefix hash)
// proves — up to hash collision — that the remainder of the faulty run
// is identical to the golden continuation, so the campaign can stop
// simulating it.
type Timeline struct {
	start  int64 // cycle of points[0]
	points []TimelinePoint
	ejHash uint64 // incremental EjectionsHash of the folded prefix
	ejSeen int    // post-fork ejections folded so far
}

// NewTimeline returns a timeline with room for n points.
func NewTimeline(n int) *Timeline {
	return &Timeline{points: make([]TimelinePoint, 0, n), ejHash: statehash.Seed}
}

// Observe records the network's state at its current cycle boundary.
// postFork must be the network's post-fork ejection history (the full
// ejection log sliced at the fork index); Observe folds only the
// entries that appeared since the previous call.
func (t *Timeline) Observe(n *sim.Network, postFork []sim.Ejection) {
	for ; t.ejSeen < len(postFork); t.ejSeen++ {
		t.ejHash = foldEjection(t.ejHash, &postFork[t.ejSeen])
	}
	t.ObserveCounters(n, postFork)
	p := &t.points[len(t.points)-1]
	p.State, p.EjectHash = n.Fingerprint(), t.ejHash
}

// ObserveCounters records only the cheap counters of the network's
// current cycle boundary, leaving State and EjectHash zero: no state
// fingerprint, no ejection hashing. It is for a timeline whose reader
// consults nothing but the counters (the divergence frontier proves
// state identity structurally and never hashes); a timeline is recorded
// with Observe or with ObserveCounters throughout, never a mix.
func (t *Timeline) ObserveCounters(n *sim.Network, postFork []sim.Ejection) {
	if len(t.points) == 0 {
		t.start = n.Cycle()
	}
	t.points = append(t.points, TimelinePoint{
		Ejections:     len(postFork),
		FlitsInjected: n.FlitsInjected(),
		FlitsEjected:  n.FlitsEjected(),
		NextPkt:       n.NextPacketID(),
	})
}

// ApproxFootprintBytes estimates the memory the timeline retains: the
// point array at capacity plus the fixed header. Like the other
// Approx* footprints it is a deliberate estimate (capacities, not a
// heap walk) so campaign memory reporting stays O(1).
func (t *Timeline) ApproxFootprintBytes() int64 {
	if t == nil {
		return 0
	}
	const pointBytes = 48 // 6 × 8-byte fields per TimelinePoint
	const headerBytes = 48
	return int64(cap(t.points))*pointBytes + headerBytes
}

// At returns the point recorded for the given cycle boundary.
func (t *Timeline) At(cycle int64) (TimelinePoint, bool) {
	if t == nil {
		return TimelinePoint{}, false
	}
	i := cycle - t.start
	if i < 0 || i >= int64(len(t.points)) {
		return TimelinePoint{}, false
	}
	return t.points[i], true
}

// Len returns the number of recorded points.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.points)
}

func foldEjection(h uint64, e *sim.Ejection) uint64 {
	h = statehash.FoldInt(h, e.Node)
	h = statehash.Fold(h, uint64(e.Cycle))
	return e.Flit.FoldState(h)
}

// EjectionsHash hashes an ejection history (order-sensitive, contents
// included). A faulty run computes this over its own post-fork log at a
// candidate reconvergence cycle and requires equality with the recorded
// EjectHash: matching state alone proves the futures coincide, matching
// ejection prefixes proves the pasts already delivered the same flits —
// together they make the faulty log equal to golden's, flit for flit.
func EjectionsHash(ejs []sim.Ejection) uint64 {
	h := statehash.Seed
	for i := range ejs {
		h = foldEjection(h, &ejs[i])
	}
	return h
}
