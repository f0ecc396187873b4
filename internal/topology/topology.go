// Package topology models the 2D mesh fabric assumed by the paper:
// routers at integer grid coordinates, four cardinal inter-router ports
// plus one local port attaching the network interface. Edge and corner
// routers simply lack the ports that would leave the grid, which is why
// an 8×8 mesh exposes 11,808 rather than 64×205 fault sites in the
// paper's enumeration.
package topology

import (
	"fmt"
	"strings"
)

// Direction identifies one of a router's ports. The four cardinal
// directions connect to neighboring routers; Local connects to the
// node's network interface.
type Direction int

// Port directions in fixed order. The numeric values index the port
// arrays inside routers, signal records and fault-site tables, so they
// must not be reordered.
const (
	North Direction = iota
	South
	East
	West
	Local
	// NumPorts is the number of ports on a fully connected mesh router.
	NumPorts
)

// Invalid marks the absence of a direction (e.g. an uncomputed route).
const Invalid Direction = -1

var dirNames = [NumPorts]string{"N", "S", "E", "W", "L"}

// String returns the single-letter conventional name of the direction.
func (d Direction) String() string {
	if d < 0 || d >= NumPorts {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the port on which a flit sent out of d arrives at the
// neighboring router. Opposite(Local) is Local: the network interface
// loops back conceptually, though no mesh link does.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	case Local:
		return Local
	}
	return Invalid
}

// IsCardinal reports whether d is one of the four mesh directions.
func (d Direction) IsCardinal() bool {
	return d >= North && d <= West
}

// Mesh is a W×H 2D mesh. Node IDs are assigned row-major with the origin
// at the bottom-left corner, matching the coordinate convention of the
// paper's Figure 2(a): node id = y*W + x.
type Mesh struct {
	W, H int
}

// NewMesh returns a mesh with the given dimensions.
// It panics if either dimension is < 1.
func NewMesh(w, h int) Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("topology: invalid mesh dimensions %dx%d", w, h))
	}
	return Mesh{W: w, H: h}
}

// ParseMesh parses a "WxH" mesh specification (e.g. "8x8"), ignoring case
// and surrounding space.
func ParseMesh(spec string) (Mesh, error) {
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(strings.TrimSpace(spec)), "%dx%d", &w, &h); err != nil {
		return Mesh{}, fmt.Errorf("topology: invalid mesh %q (want WxH)", spec)
	}
	if w < 1 || h < 1 {
		return Mesh{}, fmt.Errorf("topology: invalid mesh dimensions %dx%d", w, h)
	}
	return NewMesh(w, h), nil
}

// Nodes returns the number of routers in the mesh.
func (m Mesh) Nodes() int { return m.W * m.H }

// NodeAt returns the node id of the router at (x, y).
func (m Mesh) NodeAt(x, y int) int {
	if !m.InBounds(x, y) {
		panic(fmt.Sprintf("topology: (%d,%d) outside %dx%d mesh", x, y, m.W, m.H))
	}
	return y*m.W + x
}

// Coords returns the (x, y) coordinates of node id.
func (m Mesh) Coords(id int) (x, y int) {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("topology: node %d outside %dx%d mesh", id, m.W, m.H))
	}
	return id % m.W, id / m.W
}

// InBounds reports whether (x, y) is a valid coordinate.
func (m Mesh) InBounds(x, y int) bool {
	return x >= 0 && x < m.W && y >= 0 && y < m.H
}

// Neighbor returns the node reached by leaving id through dir, and
// whether such a neighbor exists. Leaving through Local never reaches
// another router.
func (m Mesh) Neighbor(id int, dir Direction) (int, bool) {
	x, y := m.Coords(id)
	switch dir {
	case North:
		y++
	case South:
		y--
	case East:
		x++
	case West:
		x--
	default:
		return 0, false
	}
	if !m.InBounds(x, y) {
		return 0, false
	}
	return m.NodeAt(x, y), true
}

// HasPort reports whether the router at id has a port in direction dir.
// Local always exists; cardinal ports exist only when a neighbor does.
func (m Mesh) HasPort(id int, dir Direction) bool {
	if dir == Local {
		return true
	}
	_, ok := m.Neighbor(id, dir)
	return ok
}

// HopDistance returns the Manhattan distance between two nodes, which is
// the minimal hop count in a mesh.
func (m Mesh) HopDistance(a, b int) int {
	ax, ay := m.Coords(a)
	bx, by := m.Coords(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
