package campaign

import (
	"nocalert/internal/core"
	"nocalert/internal/forever"
	"nocalert/internal/sim"
)

// runStats counts what one run actually cost versus what it skipped:
// the honest accounting behind the throughput metrics, so synthesized
// and skipped-prefix cycles never inflate the live gauges.
type runStats struct {
	// simulated is the number of cycles the run really stepped.
	simulated int64
	// warmSaved is the prefix [0, injection cycle) the fork never
	// simulated.
	warmSaved int64
	// synthesized counts cycles whose outcome was derived instead of
	// stepped: reconvergence tails through the window end, and frozen
	// drain/horizon remainders.
	synthesized int64
	// horizon is the run's logical end cycle — the boundary the
	// accounting covers — so warmSaved + simulated + synthesized ==
	// horizon at every exit path (the span-attribute invariant the
	// observability tests enforce).
	horizon int64
	// forked reports the run warm-started above cycle 0.
	forked bool
	// frontier reports the run was driven by the divergence-frontier
	// delta engine; frontierPeak is the largest router count the
	// frontier reached, frontierJoins how many lazy materializations
	// it performed and frontierProbes how many member folds it computed
	// looking for members to retire, over the whole run, drain and
	// horizon included.
	// simulated stays cycle-based regardless (a frontier
	// cycle counts as one simulated cycle however few routers stepped),
	// preserving the warmSaved + simulated + synthesized == horizon
	// invariant.
	frontier       bool
	frontierPeak   int
	frontierJoins  int64
	frontierProbes int64
	// nodesCloned is how many node copies (router and NI) the run made to
	// have a network to step: the mesh for a fork that clones it, for a
	// lazy one (worker.forkRun) the nodes the frontier ever tracked.
	nodesCloned int
}

// ffBackoffCap bounds the exponential backoff between fixed-point probe
// attempts, so livelocked runs that never freeze pay a static
// fingerprint on a few percent of their cycles at worst.
const ffBackoffCap = 64

// ffProbe detects frozen network states during a run's drain and
// ForEVeR-horizon phases. A state is provably frozen when (a) the fault
// plane is stationary — it can never fire again, or only permanent
// faults hold it open, which corrupt their wires on every cycle alike
// (fault.Plane.Stationary) — (b) no ForEVeR checker-network
// notification is in flight, and (c) the cycle-independent state
// fingerprint is identical at two consecutive cycle boundaries. Every
// stamped queue in the simulator carries at most one cycle of lookahead
// and injection is off in both phases (no RNG draws), so the step
// function reads the cycle only through the plane (Fault.ActiveAt,
// Plane.LiveFor, the first-strike FiredAt stamp), which (a) makes
// constant: (c) then makes the network state, faults applied, a fixed
// point, and the confirming step has made every consult any later step
// will, so FiredAt is final; (b) extends the fixed point to ForEVeR's
// verdict-relevant state. What remains is exactly reconstructible without
// stepping: ForEVeR's epoch-boundary bookkeeping via
// forever.Monitor.ProjectFrozenDetection, and the NoCAlert engine's
// accumulators via core.Engine.AdvanceSteady —
// a deadlocked router, or one under a permanent fault, re-emits the
// identical assertion multiset every cycle (checkers are pure functions
// of the signal record), and the probe captures that multiset across its
// confirming step. A periodic intermittent fault, or a stuck signal that
// keeps a round-robin pointer turning, is an orbit and not a fixed point:
// such a run steps to its horizon (DESIGN.md has the contract).
type ffProbe struct {
	fp      uint64
	fpCycle int64 // boundary fp was taken at; -1 when not armed
	mark    core.AccumMark
	nextTry int64
	gap     int64
}

// frozen reports whether the network at the current cycle boundary is
// provably a fixed point; fr is the frontier that steps n and supplies
// the fingerprint. Call it at every boundary of a phase
// loop: it arms on one boundary and confirms on the next, backing off
// after each failed pair. On confirmation p.mark spans exactly the
// probed step, so extend can replay the steady assertion pattern.
func (p *ffProbe) frozen(fr *sim.Frontier, n *sim.Network, eng *core.Engine, fv *forever.Monitor) bool {
	if p.gap == 0 {
		p.gap, p.fpCycle = 1, -1
	}
	if !n.FaultsStationary() || (fv != nil && !fv.PendingEmpty()) {
		p.fpCycle = -1
		return false
	}
	t := n.Cycle()
	if t < p.nextTry {
		return false
	}
	fp := fr.StaticFingerprint()
	if p.fpCycle == t-1 {
		if p.fp == fp && eng.AdvanceSteady(p.mark, 0) {
			return true
		}
		// Still evolving (or the steady pattern can't be synthesized):
		// back off before paying for the next pair.
		if p.gap < ffBackoffCap {
			p.gap *= 2
		}
		p.nextTry = t + p.gap
		p.fpCycle = -1
		return false
	}
	p.fp, p.fpCycle, p.mark = fp, t, eng.Mark()
	return false
}

// extend folds m synthesized cycles of the frozen state's assertion
// pattern into the engine, keeping its accumulators bit-identical to a
// full simulation of those cycles. Only valid after frozen returned
// true (the mark spans the confirming step) with no steps since.
func (p *ffProbe) extend(eng *core.Engine, m int64) {
	eng.AdvanceSteady(p.mark, m)
}
