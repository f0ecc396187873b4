package topology

import (
	"testing"
	"testing/quick"
)

func TestDirectionStringsAndOpposites(t *testing.T) {
	cases := []struct {
		d    Direction
		s    string
		opp  Direction
		card bool
	}{
		{North, "N", South, true},
		{South, "S", North, true},
		{East, "E", West, true},
		{West, "W", East, true},
		{Local, "L", Local, false},
	}
	for _, c := range cases {
		if c.d.String() != c.s {
			t.Errorf("%v.String() = %q", c.d, c.d.String())
		}
		if c.d.Opposite() != c.opp {
			t.Errorf("%v.Opposite() = %v", c.d, c.d.Opposite())
		}
		if c.d.IsCardinal() != c.card {
			t.Errorf("%v.IsCardinal() = %v", c.d, c.d.IsCardinal())
		}
	}
	if Invalid.Opposite() != Invalid {
		t.Error("Invalid.Opposite() should be Invalid")
	}
}

func TestNodeCoordsRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.Coords(id)
		if m.NodeAt(x, y) != id {
			t.Fatalf("round trip broken at %d", id)
		}
	}
	if m.Nodes() != 15 {
		t.Fatalf("5x3 mesh has %d nodes", m.Nodes())
	}
}

func TestRowMajorFromBottomLeft(t *testing.T) {
	m := NewMesh(4, 4)
	// Paper Figure 2(a): origin at bottom-left; node id = y*W + x.
	if m.NodeAt(0, 0) != 0 || m.NodeAt(1, 1) != 5 || m.NodeAt(1, 2) != 9 {
		t.Fatal("coordinate convention broken")
	}
}

func TestNeighbors(t *testing.T) {
	m := NewMesh(3, 3)
	center := m.NodeAt(1, 1)
	for dir, want := range map[Direction]int{
		North: m.NodeAt(1, 2),
		South: m.NodeAt(1, 0),
		East:  m.NodeAt(2, 1),
		West:  m.NodeAt(0, 1),
	} {
		got, ok := m.Neighbor(center, dir)
		if !ok || got != want {
			t.Errorf("Neighbor(center, %v) = %d,%v want %d", dir, got, ok, want)
		}
	}
	if _, ok := m.Neighbor(center, Local); ok {
		t.Error("Local neighbor should not exist")
	}
	corner := m.NodeAt(0, 0)
	if _, ok := m.Neighbor(corner, South); ok {
		t.Error("south of bottom row should not exist")
	}
	if _, ok := m.Neighbor(corner, West); ok {
		t.Error("west of left column should not exist")
	}
}

func TestPortCounts(t *testing.T) {
	m := NewMesh(8, 8)
	counts := map[int]int{}
	for id := 0; id < m.Nodes(); id++ {
		n := 0
		for d := North; d < NumPorts; d++ {
			if m.HasPort(id, d) {
				n++
			}
		}
		counts[n]++
	}
	// An 8×8 mesh: 4 corners (3 ports), 24 edges (4 ports), 36
	// interior (5 ports).
	if counts[3] != 4 || counts[4] != 24 || counts[5] != 36 {
		t.Fatalf("port count distribution %v", counts)
	}
}

func TestHopDistance(t *testing.T) {
	m := NewMesh(8, 8)
	if d := m.HopDistance(m.NodeAt(0, 0), m.NodeAt(7, 7)); d != 14 {
		t.Fatalf("corner-to-corner distance %d", d)
	}
	if d := m.HopDistance(3, 3); d != 0 {
		t.Fatalf("self distance %d", d)
	}
}

// Property: moving to any neighbor closer to dest always reaches dest.
func TestTowardDestConverges(t *testing.T) {
	m := NewMesh(6, 5)
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		cur := a
		for steps := 0; cur != b; steps++ {
			if steps > m.W+m.H {
				return false
			}
			moved := false
			for d := North; d < NumPorts; d++ {
				if next, ok := m.Neighbor(cur, d); ok && m.HopDistance(next, b) < m.HopDistance(cur, b) {
					cur = next
					moved = true
					break
				}
			}
			if !moved {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighborhood is symmetric — if B is A's neighbor via d,
// then A is B's neighbor via d.Opposite().
func TestNeighborSymmetry(t *testing.T) {
	m := NewMesh(7, 4)
	for id := 0; id < m.Nodes(); id++ {
		for d := North; d <= West; d++ {
			nb, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(nb, d.Opposite())
			if !ok2 || back != id {
				t.Fatalf("asymmetric link %d -%v-> %d", id, d, nb)
			}
		}
	}
}

func TestPanics(t *testing.T) {
	m := NewMesh(2, 2)
	for _, f := range []func(){
		func() { NewMesh(0, 2) },
		func() { m.Coords(-1) },
		func() { m.Coords(4) },
		func() { m.NodeAt(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestParseMesh covers the "WxH" specification parser.
func TestParseMesh(t *testing.T) {
	m, err := ParseMesh("8x8")
	if err != nil || m.W != 8 || m.H != 8 {
		t.Fatalf("ParseMesh(8x8) = %v, %v", m, err)
	}
	if m, err := ParseMesh(" 4X2 "); err != nil || m.W != 4 || m.H != 2 {
		t.Fatalf("ParseMesh with case/space = %v, %v", m, err)
	}
	for _, bad := range []string{"", "8", "8x", "x8", "0x4", "ax b"} {
		if _, err := ParseMesh(bad); err == nil {
			t.Errorf("ParseMesh(%q) accepted", bad)
		}
	}
}
