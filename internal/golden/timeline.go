package golden

import (
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
)

// TimelinePoint is the golden run's recorded summary of one cycle
// boundary: the cheap counters a faulty run compares (three integer
// compares reject almost every non-matching cycle) and, when recorded
// with Observe, the full network state fingerprint and the hash of the
// post-fork ejection history up to the boundary.
type TimelinePoint struct {
	// State is the network's full state fingerprint (sim.Network
	// Fingerprint) at the boundary.
	State uint64
	// EjectHash folds the post-fork ejection history observed by the
	// boundary.
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
// the ejection Log. The campaign records the counters only
// (ObserveCounters): a frontier run whose fault plane has gone quiescent
// and whose divergence frontier is empty and clean has golden's state by
// construction, and the counters at the same cycle confirm its flit
// accounting, so the campaign can stop simulating it. Observe records
// the state fingerprint and ejection hash too, what a run without the
// frontier would have to compare.
type Timeline struct {
	start  int64 // cycle of points[0]
	points []TimelinePoint
	ejHash uint64 // incremental hash of the folded post-fork prefix
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
