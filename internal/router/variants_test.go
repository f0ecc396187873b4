package router

import (
	"testing"

	"nocalert/internal/flit"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
)

// TestSpeculativePipelineIsFaster: in speculative mode VA and SA run
// concurrently, so a header reaches the crossbar one cycle earlier than
// in the baseline (paper §4.4 variation).
func TestSpeculativePipelineIsFaster(t *testing.T) {
	depart := func(spec bool) int {
		cfg := Default(topology.NewMesh(3, 3))
		cfg.Speculative = spec
		r := New(4, &cfg, nil)
		dest := cfg.Mesh.NodeAt(2, 1)
		p := &flit.Packet{ID: 1, Src: 4, Dest: dest, Length: 1}
		dx, dy := cfg.Mesh.Coords(dest)
		f := p.Flits(dx, dy)[0]
		f.VC = 0
		r.StageArrival(topology.Local, f)
		for c := int64(0); c < 10; c++ {
			r.BeginCycle(c)
			r.Evaluate(c)
			if len(r.Signals().Departures) > 0 {
				return int(c)
			}
		}
		return -1
	}
	base := depart(false)
	spec := depart(true)
	if base < 0 || spec < 0 {
		t.Fatalf("packet stuck: base=%d spec=%d", base, spec)
	}
	if spec >= base {
		t.Fatalf("speculation did not shorten the pipeline: base=%d spec=%d", base, spec)
	}
}

// TestSpeculativeNullification: a speculative switch grant whose VA has
// not completed by traversal time must be nullified, not forward
// garbage.
func TestSpeculativeNullification(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	cfg.Speculative = true
	r := New(4, &cfg, nil)
	// Fill every East output VC so VA cannot complete.
	for v := 0; v < cfg.VCs; v++ {
		r.st.OutFlags[int(topology.East)*r.st.V+v] &^= soa.OutFree
	}
	dest := cfg.Mesh.NodeAt(2, 1)
	p := &flit.Packet{ID: 1, Src: 4, Dest: dest, Length: 1}
	dx, dy := cfg.Mesh.Coords(dest)
	f := p.Flits(dx, dy)[0]
	f.VC = 0
	r.StageArrival(topology.Local, f)
	for c := int64(0); c < 12; c++ {
		r.BeginCycle(c)
		r.Evaluate(c)
		if len(r.Signals().Departures) != 0 {
			t.Fatalf("speculative grant forwarded a flit without VA at cycle %d", c)
		}
	}
	// The flit must still be buffered, not lost.
	if r.in[int(topology.Local)].vcs[0].empty() {
		t.Fatal("nullified speculation lost the flit")
	}
}

// TestNonAtomicBackToBackPackets: with non-atomic buffers, the next
// packet's header may already sit behind the previous tail in the same
// VC and must restart the pipeline without a gap or mixing.
func TestNonAtomicBackToBackPackets(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	cfg.AtomicVC = false
	cfg.LenByClass = []int{2}
	r := New(4, &cfg, nil)
	dest := cfg.Mesh.NodeAt(2, 1)
	dx, dy := cfg.Mesh.Coords(dest)

	var stream []*flit.Flit
	for id := uint64(1); id <= 3; id++ {
		p := &flit.Packet{ID: id, Src: 4, Dest: dest, Length: 2}
		stream = append(stream, p.Flits(dx, dy)...)
	}
	var departed []*flit.Flit
	cycle := int64(0)
	for c := 0; c < 40 && len(departed) < len(stream); c++ {
		if c < len(stream) {
			f := stream[c]
			f.VC = 0 // all three packets share one input VC
			r.StageArrival(topology.Local, f)
		}
		r.BeginCycle(cycle)
		r.Evaluate(cycle)
		for _, d := range r.Signals().Departures {
			departed = append(departed, d.Flit)
			// Keep the downstream credits flowing.
			r.StageCredit(topology.East, d.OutVC)
		}
		cycle++
	}
	if len(departed) != len(stream) {
		t.Fatalf("forwarded %d of %d flits", len(departed), len(stream))
	}
	for i, f := range departed {
		want := stream[i]
		if f.PacketID != want.PacketID || f.Seq != want.Seq {
			t.Fatalf("flit %d out of order: got p%d.%d want p%d.%d",
				i, f.PacketID, f.Seq, want.PacketID, want.Seq)
		}
	}
}

// TestAtomicBufferRefusesInterleaving: in atomic mode the upstream
// protocol never presents a second header before the VC is recycled;
// the router-level invariant is that a VC holds flits of at most one
// packet. Drive the protocol correctly and verify the buffer never
// mixes.
func TestAtomicBufferSinglePacketResidency(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	r := New(4, &cfg, nil)
	dest := cfg.Mesh.NodeAt(2, 1)
	dx, dy := cfg.Mesh.Coords(dest)
	p := &flit.Packet{ID: 1, Src: 4, Dest: dest, Length: 5}
	cycle := int64(0)
	for _, f := range p.Flits(dx, dy) {
		f.VC = 1
		r.StageArrival(topology.North, f)
		r.BeginCycle(cycle)
		r.Evaluate(cycle)
		cycle++
		ids := map[uint64]bool{}
		for _, bf := range r.in[int(topology.North)].vcs[1].buf {
			ids[bf.f.PacketID] = true
		}
		if len(ids) > 1 {
			t.Fatalf("atomic VC holds %d packets", len(ids))
		}
	}
}

// TestSignalsResetBetweenCycles: stale events must not leak into the
// next cycle's record.
func TestSignalsResetBetweenCycles(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	r := New(4, &cfg, nil)
	dest := cfg.Mesh.NodeAt(2, 1)
	dx, dy := cfg.Mesh.Coords(dest)
	f := (&flit.Packet{ID: 1, Src: 4, Dest: dest, Length: 1}).Flits(dx, dy)[0]
	f.VC = 0
	r.StageArrival(topology.Local, f)
	r.BeginCycle(0)
	r.Evaluate(0)
	if len(r.Signals().Arrivals) != 1 {
		t.Fatal("arrival not recorded")
	}
	r.BeginCycle(1)
	r.Evaluate(1)
	if len(r.Signals().Arrivals) != 0 {
		t.Fatal("arrival leaked into the next cycle")
	}
	if r.Signals().Cycle != 1 {
		t.Fatal("cycle stamp wrong")
	}
}
