// Package golden implements the paper's Golden Reference methodology
// (§5.2–5.3): the ejection log of a fault-free run is compared against
// the log of a fault-injected run to decide whether the fault caused an
// actual network-correctness violation — the ground truth behind the
// true/false positive/negative classification.
//
// The four correctness conditions (no flit drop, bounded delivery, no
// data corruption / packet mixing, no new flit generation) are applied
// at flit granularity, plus the intra-packet ordering rule the paper
// adds when moving from packets to flits.
package golden

import (
	"nocalert/internal/flit"
	"nocalert/internal/sim"
)

// Key identifies one flit: the packet it belongs to and its index.
type Key struct {
	Pkt uint64
	Seq int
}

// Entry is one observed ejection of a flit.
type Entry struct {
	Node  int
	Cycle int64
	Kind  flit.Kind
	Dest  int
	EDCOK bool
}

// Log is an indexed ejection log.
type Log struct {
	entries map[Key][]Entry
	// perNode preserves per-node ejection order for the intra-packet
	// ordering rule.
	perNode map[int][]nodeEntry
	total   int
}

// nodeEntry is one ejection in a node's ejection order.
type nodeEntry struct {
	Key   Key
	Cycle int64
}

// FromEjections indexes a simulation's ejection log. Only ejections at
// or after the `since` cycle are considered (campaigns pass the warmup
// boundary so that forked runs compare only their divergent suffix;
// pass 0 to index everything).
func FromEjections(ejs []sim.Ejection, since int64) *Log {
	return FromEjectionsInto(nil, ejs, since)
}

// Reset empties the log while keeping its maps and per-node key slices
// for reuse, so campaign workers can index one faulty run after another
// without reallocating.
func (l *Log) Reset() {
	clear(l.entries)
	for n, keys := range l.perNode {
		l.perNode[n] = keys[:0]
	}
	l.total = 0
}

// FromEjectionsInto is FromEjections indexing into an existing log
// (which it Resets first); a nil log allocates a fresh one. Returns the
// log indexed into.
func FromEjectionsInto(l *Log, ejs []sim.Ejection, since int64) *Log {
	if l == nil {
		l = &Log{
			entries: make(map[Key][]Entry, len(ejs)),
			perNode: make(map[int][]nodeEntry),
		}
	} else {
		l.Reset()
	}
	for _, e := range ejs {
		if e.Cycle < since {
			continue
		}
		k := Key{Pkt: e.Flit.PacketID, Seq: e.Flit.Seq}
		l.entries[k] = append(l.entries[k], Entry{
			Node:  e.Node,
			Cycle: e.Cycle,
			Kind:  e.Flit.Kind,
			Dest:  e.Flit.Dest,
			EDCOK: e.Flit.EDCOK(),
		})
		l.perNode[e.Node] = append(l.perNode[e.Node], nodeEntry{Key: k, Cycle: e.Cycle})
		l.total++
	}
	return l
}

// ApproxFootprintBytes estimates the memory the log retains. Like the
// other Approx* footprints it is a deliberate estimate (a fixed cost
// per indexed ejection, not a heap walk).
func (l *Log) ApproxFootprintBytes() int64 {
	if l == nil {
		return 0
	}
	// Per ejection: the map's Key and entry-slice header, one Entry and
	// the per-node entry, with half as much again for map buckets and
	// slice slack.
	const ejectionBytes = (16 + 24 + 40 + 24) * 3 / 2
	const headerBytes = 64
	return int64(l.total)*ejectionBytes + headerBytes
}

// Verdict is the network-correctness judgment for one faulty run.
type Verdict struct {
	// Dropped counts golden flits missing from the faulty log.
	Dropped int
	// Generated counts flits in the faulty log beyond the golden
	// multiset (duplicates and spontaneous flits).
	Generated int
	// Misdelivered counts flits ejected at a node other than their
	// destination.
	Misdelivered int
	// Corrupted counts flits whose EDC failed or whose kind no longer
	// matches their position in the packet.
	Corrupted int
	// Misordered counts intra-packet order inversions at a destination.
	Misordered int
	// Unbounded reports that the faulty run failed to drain before its
	// deadline (deadlock, livelock, or stuck flits).
	Unbounded bool
}

// OK reports whether the run satisfied all network-correctness rules —
// i.e. the injected fault was benign.
func (v *Verdict) OK() bool {
	return v.Dropped == 0 && v.Generated == 0 && v.Misdelivered == 0 &&
		v.Corrupted == 0 && v.Misordered == 0 && !v.Unbounded
}

// Compare judges a faulty run against the golden reference.
// faultyDrained reports whether the faulty network emptied before its
// drain deadline (bounded delivery).
func Compare(goldenLog, faulty *Log, faultyDrained bool) Verdict {
	var v Verdict
	if !faultyDrained {
		v.Unbounded = true
	}

	// Flit conservation: golden multiset vs faulty multiset.
	for k, ge := range goldenLog.entries {
		fe := faulty.entries[k]
		if len(fe) < len(ge) {
			v.Dropped += len(ge) - len(fe)
		}
	}
	for k, fe := range faulty.entries {
		ge := goldenLog.entries[k]
		if len(fe) > len(ge) {
			v.Generated += len(fe) - len(ge)
		}
		for _, e := range fe {
			if e.Node != e.Dest {
				v.Misdelivered++
			}
			if !e.EDCOK {
				v.Corrupted++
			}
			if len(ge) > 0 && e.Kind != ge[0].Kind {
				v.Corrupted++
			}
		}
	}

	// Intra-packet ordering at each destination: for every packet, the
	// sequence numbers ejected at a node must be non-decreasing by
	// position (flits of a packet are delivered in order).
	v.Misordered += countOrderViolations(faulty)
	return v
}

func countOrderViolations(l *Log) int {
	bad := 0
	for _, seq := range l.perNode {
		last := make(map[uint64]int)
		for _, e := range seq {
			bad += orderStep(last, e.Key)
		}
	}
	return bad
}

// orderStep takes one more ejection of a node's ejection order and
// returns 1 if it inverts its packet's sequence, else 0. last holds each
// packet's latest sequence number at the node.
func orderStep(last map[uint64]int, k Key) int {
	prev, ok := last[k.Pkt]
	last[k.Pkt] = k.Seq
	if ok && k.Seq < prev {
		return 1
	}
	return 0
}
