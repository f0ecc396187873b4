package golden

import (
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
)

// TimelinePoint is the golden run's recorded summary of one cycle
// boundary: the network's full state fingerprint, the hash of the
// post-fork ejection history up to the boundary, and the cheap counters.
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

// Timeline is a per-cycle state record of a golden run, stored alongside
// the ejection Log: what a faulty run without the divergence frontier
// would have to compare to learn that it has reconverged. The campaign
// keeps none (a frontier run's reconvergence is structural, its counters
// the transcript's: sim.Frontier.CountersGolden); the benchmark times
// Observe.
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
	if len(t.points) == 0 {
		t.start = n.Cycle()
	}
	t.points = append(t.points, TimelinePoint{
		State:         n.Fingerprint(),
		EjectHash:     t.ejHash,
		Ejections:     len(postFork),
		FlitsInjected: n.FlitsInjected(),
		FlitsEjected:  n.FlitsEjected(),
		NextPkt:       n.NextPacketID(),
	})
}

// ApproxFootprintBytes estimates the memory the timeline retains: the
// point array at capacity plus the fixed header. Like the other
// Approx* footprints it is a deliberate estimate (capacities, not a
// heap walk), O(1) to take.
func (t *Timeline) ApproxFootprintBytes() int64 {
	if t == nil {
		return 0
	}
	const pointBytes = 48 // 6 × 8-byte fields per TimelinePoint
	const headerBytes = 48
	return int64(cap(t.points))*pointBytes + headerBytes
}

func foldEjection(h uint64, e *sim.Ejection) uint64 {
	h = statehash.FoldInt(h, e.Node)
	h = statehash.Fold(h, uint64(e.Cycle))
	return e.Flit.FoldState(h)
}
