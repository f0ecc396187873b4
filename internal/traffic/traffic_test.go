package traffic

import (
	"testing"

	"nocalert/internal/rng"
	"nocalert/internal/topology"
)

func allPatterns(t *testing.T) []Pattern {
	t.Helper()
	names := []string{"uniform", "transpose", "bitcomplement", "bitreverse", "shuffle", "neighbor", "hotspot"}
	out := make([]Pattern, len(names))
	for i, n := range names {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, p.Name())
		}
		out[i] = p
	}
	return out
}

// TestNoSelfTraffic: no pattern ever returns the source as destination.
func TestNoSelfTraffic(t *testing.T) {
	g := rng.New(1, 0)
	for _, m := range []topology.Mesh{topology.NewMesh(4, 4), topology.NewMesh(3, 5), topology.NewMesh(8, 8)} {
		for _, p := range allPatterns(t) {
			for src := 0; src < m.Nodes(); src++ {
				for i := 0; i < 20; i++ {
					d := p.Dest(m, src, g)
					if d == src {
						t.Fatalf("%s: self traffic at node %d on %dx%d", p.Name(), src, m.W, m.H)
					}
					if d < 0 || d >= m.Nodes() {
						t.Fatalf("%s: destination %d out of range", p.Name(), d)
					}
				}
			}
		}
	}
}

func TestUnknownPattern(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestTransposeMapping(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(2, 0)
	if d := (Transpose{}).Dest(m, m.NodeAt(1, 3), g); d != m.NodeAt(3, 1) {
		t.Fatalf("transpose(1,3) = %d", d)
	}
	// Diagonal falls back to some other node.
	if d := (Transpose{}).Dest(m, m.NodeAt(2, 2), g); d == m.NodeAt(2, 2) {
		t.Fatal("diagonal self traffic")
	}
}

func TestBitComplementMapping(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(2, 0)
	if d := (BitComplement{}).Dest(m, 3, g); d != 12 {
		t.Fatalf("complement(3) = %d", d)
	}
}

func TestBitReverseMapping(t *testing.T) {
	m := topology.NewMesh(4, 4) // 16 nodes, 4 bits
	g := rng.New(2, 0)
	if d := (BitReverse{}).Dest(m, 1, g); d != 8 {
		t.Fatalf("reverse(0001) = %d, want 8", d)
	}
	// Non-power-of-two meshes fall back gracefully.
	m2 := topology.NewMesh(3, 5)
	for src := 0; src < m2.Nodes(); src++ {
		if d := (BitReverse{}).Dest(m2, src, g); d == src || d >= m2.Nodes() {
			t.Fatalf("reverse fallback broken at %d -> %d", src, d)
		}
	}
}

func TestShuffleMapping(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(2, 0)
	if d := (Shuffle{}).Dest(m, 5, g); d != 10 {
		t.Fatalf("shuffle(0101) = %d, want 10", d)
	}
}

func TestNeighborMapping(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(2, 0)
	if d := (Neighbor{}).Dest(m, m.NodeAt(1, 2), g); d != m.NodeAt(2, 2) {
		t.Fatalf("neighbor = %d", d)
	}
	if d := (Neighbor{}).Dest(m, m.NodeAt(3, 2), g); d != m.NodeAt(0, 2) {
		t.Fatalf("neighbor wrap = %d", d)
	}
}

func TestHotspotBias(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(7, 0)
	spot := m.NodeAt(2, 2)
	h := NewHotspot([]int{spot}, 0.5)
	hits := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if h.Dest(m, 0, g) == spot {
			hits++
		}
	}
	rate := float64(hits) / draws
	// 50% direct plus uniform residue ~1/15th of the other half.
	if rate < 0.45 || rate > 0.62 {
		t.Fatalf("hotspot rate %.3f", rate)
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	m := topology.NewMesh(4, 4)
	g := rng.New(9, 0)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[(Uniform{}).Dest(m, 7, g)] = true
	}
	if len(seen) != m.Nodes()-1 {
		t.Fatalf("uniform reached %d destinations, want %d", len(seen), m.Nodes()-1)
	}
}
