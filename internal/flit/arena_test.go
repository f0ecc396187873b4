package flit

import "testing"

func TestArenaCloneOfCopiesValue(t *testing.T) {
	var a Arena
	f := &Flit{PacketID: 7, Seq: 2, Kind: Tail, VC: 3, Payload: 0xbeef}
	f.SealEDC()
	c := a.CloneOf(f)
	if c == f {
		t.Fatal("arena clone must be a distinct object")
	}
	if *c != *f {
		t.Fatalf("arena clone differs: %+v vs %+v", c, f)
	}
	c.VC = 1
	if f.VC != 3 {
		t.Fatal("mutating the clone leaked into the original")
	}
}

func TestArenaNilFallsBackToHeap(t *testing.T) {
	var a *Arena
	f := &Flit{PacketID: 1}
	c := a.CloneOf(f)
	if c == f || *c != *f {
		t.Fatal("nil-arena CloneOf must heap-clone")
	}
}

// Get returns a zeroed flit slot from the arena.
func (a *Arena) Get() *Flit {
	f := a.slot()
	*f = Flit{}
	return f
}

func TestArenaGetZeroesSlot(t *testing.T) {
	var a Arena
	f := a.Get()
	f.PacketID = 99
	a.Reset()
	g := a.Get()
	if g != f {
		t.Fatal("after Reset the arena must hand back the same slot")
	}
	if g.PacketID != 0 {
		t.Fatal("Get must zero recycled slots")
	}
}

func TestArenaGrowsAcrossSlabs(t *testing.T) {
	var a Arena
	seen := map[*Flit]bool{}
	for i := 0; i < 3*arenaSlabSize+5; i++ {
		f := a.Get()
		if seen[f] {
			t.Fatalf("slot %d handed out twice before Reset", i)
		}
		seen[f] = true
	}
	a.Reset()
	if f := a.Get(); !seen[f] {
		t.Fatal("Reset must recycle existing slabs, not allocate new ones")
	}
}
