package sim

import "nocalert/internal/statehash"

// foldState folds the NI's mutable state into a state-fingerprint
// accumulator. The enumeration mirrors cloneInto exactly: queued
// packets, the streaming flit window, credit bookkeeping, in-flight
// link traffic (foldBody, cached while nothing writes the NI) and, last,
// the traffic generator's RNG state, which is drawn on every cycle of the
// injection phase.
func (ni *NI) foldState(h uint64) uint64 {
	if !ni.bodyOK {
		ni.body, ni.bodyOK = ni.foldBody(), true
	}
	return ni.gen.FoldState(statehash.Fold(h, ni.body))
}

// foldBody folds the NI without its traffic generator: the part that
// changes only when the NI has something to do.
func (ni *NI) foldBody() uint64 {
	h := statehash.FoldInt(statehash.Seed, ni.curVC)
	h = statehash.FoldInt(h, len(ni.queue))
	for i := range ni.queue {
		h = ni.queue[i].FoldState(h)
	}
	h = statehash.FoldInt(h, len(ni.cur))
	for _, f := range ni.cur {
		h = f.FoldState(h)
	}
	for v := range ni.outCredits {
		// One word per VC: the counter and the NIFree/NITailSent bits.
		h = statehash.Fold(h, uint64(uint32(ni.outCredits[v]))|uint64(ni.outFlags[v])<<32)
	}
	h = statehash.FoldInt(h, len(ni.inbox))
	for _, a := range ni.inbox {
		h = a.f.FoldState(h)
		h = statehash.Fold(h, uint64(a.cycle))
	}
	h = statehash.FoldInt(h, len(ni.credits))
	for _, c := range ni.credits {
		h = statehash.FoldInt(h, c.vc)
		h = statehash.Fold(h, uint64(c.cycle))
	}
	return h
}

// Fingerprint folds the network's mutable state — routers (pipeline
// registers, buffers, arbiters, in-flight link flits), NIs (queues, credit
// state, RNG streams) and the global counters — into one 64-bit hash. A
// router whose own fault window has closed for good folds its live state
// only (routerFold). Two networks built from the same configuration whose
// fingerprints agree at a cycle boundary hold, up to hash collision, the
// same state but for the residue of routers whose windows have closed.
// Campaigns compare a replayed fork against the fork point's fingerprint.
//
// Like cloning, the fingerprint is only meaningful at a cycle boundary.
// The ejection log is deliberately excluded — callers compare ejection
// histories separately (they are observations, not state the next cycle
// reads).
func (n *Network) Fingerprint() uint64 {
	h := statehash.Seed
	h = statehash.Fold(h, uint64(n.cycle))
	return n.foldBody(h)
}

// StaticFingerprint is Fingerprint without the cycle fold: two
// consecutive cycle boundaries of the same network agree iff no folded
// state changed across the step. Every stamped queue in the simulator
// (NI inboxes, credit links, router pipeline stages) carries at most
// one cycle of lookahead, so two identical consecutive boundary states
// are a fixed point — no future Step can ever change the state again (a
// closed-window step that reads a router's residue changes its live
// state, so the step that held it still read none; DESIGN.md §3.2).
// Campaign fast-forward asks the frontier's (Frontier.StaticFingerprint)
// to synthesize the remainder of a deadlocked drain or an idle ForEVeR
// horizon instead of stepping it; the full network's is the oracle the
// tests hold that to (campaign's TestFrozenStationaryRunIsAFixedPoint,
// frontierLockstep, statehash's TestSharedSnapshotFoldsWithoutAWrite).
func (n *Network) StaticFingerprint() uint64 {
	return n.foldBody(statehash.Seed)
}

// foldCounters folds the network-level scalars the next Step reads.
func (n *Network) foldCounters(h uint64) uint64 {
	h = statehash.Fold(h, n.nextPkt)
	h = statehash.FoldBool(h, n.injecting)
	h = statehash.Fold(h, uint64(n.flitsInjected))
	h = statehash.Fold(h, uint64(n.flitsEjected))
	return statehash.Fold(h, uint64(n.pktsOffered))
}

func (n *Network) foldBody(h uint64) uint64 {
	h = n.foldCounters(h)
	for i := range n.routers {
		h = n.routerFold(i, h)
	}
	for _, ni := range n.nis {
		h = ni.foldState(h)
	}
	return h
}

// NextPacketID returns the id the next generated packet will take —
// one of the cheap counters campaigns compare before paying for a full
// Fingerprint.
func (n *Network) NextPacketID() uint64 { return n.nextPkt }

// FaultsQuiescent reports whether the attached fault plane can no
// longer fire from the current cycle onward, regardless of whether it
// already corrupted state (see fault.Plane.Quiescent). This is the gate
// for reconvergence detection: once quiescent, the faulty network is an
// unfaulted deterministic system whose state either reconverges with
// the golden run or diverges forever. Monotone, and one compare.
func (n *Network) FaultsQuiescent() bool { return n.plane.Quiescent(n.cycle) }

// FaultsStationary reports whether the attached fault plane answers
// every consult from the current cycle onward as it did on the cycle
// before (see fault.Plane.Stationary): quiescent, or held open by
// permanent faults alone. This is the gate for the frozen-state
// fast-forward, which needs a step function that no longer reads the
// cycle; reconvergence and frontier retirement need FaultsQuiescent.
func (n *Network) FaultsStationary() bool { return n.plane.Stationary(n.cycle) }
