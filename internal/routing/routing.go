// Package routing implements the routing algorithms exercised in the
// paper: deterministic XY (the evaluation baseline), the West-First turn
// model, and a Duato-style minimal adaptive algorithm with an XY escape
// channel. Each algorithm also exposes its *functional rules* — legal
// turns, minimality, escape-VC constraints — because those rules, not the
// route computation itself, are what the NoCAlert checkers assert
// (invariances 1–3 and the routing clause of invariance 10).
package routing

import (
	"fmt"

	"nocalert/internal/topology"
)

// Algorithm is a distributed routing function plus the functional rules
// the NoCAlert RC checkers derive their assertions from.
type Algorithm interface {
	// Name identifies the algorithm in configs and reports.
	Name() string
	// Candidates returns the output directions the algorithm permits
	// for a packet at node cur that entered on port in (Local when
	// injected) and is headed to destination coordinates (destX,
	// destY), in preference order. Deterministic algorithms return one
	// element; reaching the destination yields [Local]. The
	// coordinates come straight off the header wires, so they may lie
	// outside the mesh when those wires are faulted — RC hardware
	// compares coordinates and happily routes toward an impossible
	// destination, which is exactly the behaviour the checkers must
	// observe. The returned slice is the algorithm's to keep: the
	// single-candidate answers are shared package-level values, so a
	// caller reads it (as the router's pickCandidate does) and never
	// writes or appends to it.
	Candidates(m topology.Mesh, cur int, destX, destY int, in topology.Direction) []topology.Direction
	// LegalTurn reports whether a packet that entered on port in may
	// leave on port out under the algorithm's turn rules, irrespective
	// of destination. This is the oracle for invariance 1.
	LegalTurn(in, out topology.Direction) bool
	// Minimal reports whether every permitted hop must reduce the
	// distance to the destination, which enables invariance 3.
	Minimal() bool
}

// New returns the algorithm registered under name ("xy", "westfirst" or
// "adaptive"). It returns an error for unknown names.
func New(name string) (Algorithm, error) {
	switch name {
	case "xy", "XY", "":
		return XY{}, nil
	case "westfirst", "west-first":
		return WestFirst{}, nil
	case "adaptive", "duato":
		return Adaptive{}, nil
	}
	return nil, fmt.Errorf("routing: unknown algorithm %q", name)
}

// only holds the single-candidate answers, one read-only slice per
// direction: a route computation that has one answer allocates nothing.
var only = [...][]topology.Direction{
	topology.North: {topology.North},
	topology.South: {topology.South},
	topology.East:  {topology.East},
	topology.West:  {topology.West},
	topology.Local: {topology.Local},
}

// XY is dimension-ordered routing: fully resolve the X offset, then the
// Y offset. Its turn rule — the one in the paper's Figure 2(a) example —
// is that a packet travelling in Y (entered on the North or South port)
// may never turn back into X (exit East or West).
type XY struct{}

// Name implements Algorithm.
func (XY) Name() string { return "xy" }

// Minimal implements Algorithm; XY is minimal.
func (XY) Minimal() bool { return true }

// Candidates implements Algorithm.
func (XY) Candidates(m topology.Mesh, cur int, destX, destY int, in topology.Direction) []topology.Direction {
	cx, cy := m.Coords(cur)
	dx, dy := destX, destY
	switch {
	case dx > cx:
		return only[topology.East]
	case dx < cx:
		return only[topology.West]
	case dy > cy:
		return only[topology.North]
	case dy < cy:
		return only[topology.South]
	}
	return only[topology.Local]
}

// LegalTurn implements Algorithm. Under XY a packet arriving from the Y
// dimension must not exit in the X dimension, and 180° turns are always
// illegal.
func (XY) LegalTurn(in, out topology.Direction) bool {
	if uTurn(in, out) {
		return false
	}
	fromY := in == topology.North || in == topology.South
	toX := out == topology.East || out == topology.West
	return !(fromY && toX)
}

// WestFirst is the west-first turn model: any hop to the West must be
// taken before all others, so no turn *into* West is permitted.
type WestFirst struct{}

// Name implements Algorithm.
func (WestFirst) Name() string { return "westfirst" }

// Minimal implements Algorithm; this implementation restricts itself to
// minimal productive hops.
func (WestFirst) Minimal() bool { return true }

// Candidates implements Algorithm. If the destination lies to the west,
// the only candidate is West; otherwise every productive direction that
// keeps the turn rules is offered, preferring X before Y to spread load.
func (WestFirst) Candidates(m topology.Mesh, cur int, destX, destY int, in topology.Direction) []topology.Direction {
	cx, cy := m.Coords(cur)
	dx, dy := destX, destY
	if cx == dx && cy == dy {
		return only[topology.Local]
	}
	if dx < cx {
		return only[topology.West]
	}
	var out []topology.Direction
	if dx > cx {
		out = append(out, topology.East)
	}
	if dy > cy {
		out = append(out, topology.North)
	} else if dy < cy {
		out = append(out, topology.South)
	}
	return out
}

// LegalTurn implements Algorithm: turns into West are forbidden except
// continuing straight from the East input, and 180° turns are illegal.
func (WestFirst) LegalTurn(in, out topology.Direction) bool {
	if uTurn(in, out) {
		return false
	}
	if out == topology.West {
		// Only an injection or a packet already heading west (entered
		// on the East port) may use the West output.
		return in == topology.Local || in == topology.East
	}
	return true
}

// Adaptive is a Duato-protocol-style minimal adaptive algorithm: all
// productive directions are candidates on the adaptive VCs, while VC 0
// of each port is the escape channel restricted to XY. The escape rule
// ("a packet in the escape VC must follow XY") is itself a functional
// rule the checkers assert.
type Adaptive struct{}

// Name implements Algorithm.
func (Adaptive) Name() string { return "adaptive" }

// Minimal implements Algorithm; candidates are productive hops only.
func (Adaptive) Minimal() bool { return true }

// Candidates implements Algorithm, returning every productive direction
// (X preferred first for a deterministic tie-break downstream).
func (Adaptive) Candidates(m topology.Mesh, cur int, destX, destY int, in topology.Direction) []topology.Direction {
	cx, cy := m.Coords(cur)
	dx, dy := destX, destY
	if cx == dx && cy == dy {
		return only[topology.Local]
	}
	var out []topology.Direction
	if dx > cx {
		out = append(out, topology.East)
	} else if dx < cx {
		out = append(out, topology.West)
	}
	if dy > cy {
		out = append(out, topology.North)
	} else if dy < cy {
		out = append(out, topology.South)
	}
	return out
}

// LegalTurn implements Algorithm. Minimal adaptive routing with an XY
// escape channel permits every turn except a 180° reversal; deadlock
// freedom comes from the escape VC, not from turn prohibition.
func (Adaptive) LegalTurn(in, out topology.Direction) bool {
	return !uTurn(in, out)
}

// EscapeVC is the virtual channel index reserved as the Duato escape
// channel by the Adaptive algorithm.
const EscapeVC = 0

func uTurn(in, out topology.Direction) bool {
	return in.IsCardinal() && out == in
}
