package sim

import (
	"testing"

	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

func niRig(t *testing.T) (*NI, *router.Router, *router.Config) {
	t.Helper()
	rc := router.Default(topology.NewMesh(3, 3))
	r := router.New(4, &rc, nil)
	ni := newNI(4, &rc, 99, nil, nil)
	return ni, r, &rc
}

func TestNIStreamsOneFlitPerCycle(t *testing.T) {
	ni, r, rc := niRig(t)
	p := &flit.Packet{ID: 1, Src: 4, Dest: 5, Class: 0, Length: 5}
	ni.enqueue(p)
	var ejected []*flit.Flit
	sent := 0
	for c := int64(0); c < 10; c++ {
		if ok, _ := ni.tickInject(c, r, &ejected); ok {
			sent++
		}
		r.BeginCycle(c)
		r.Evaluate(c)
	}
	if sent != 5 {
		t.Fatalf("sent %d flits, want 5", sent)
	}
	if ni.Streaming() || ni.QueueLen() != 0 {
		t.Fatal("NI not idle after streaming the packet")
	}
	_ = rc
}

func TestNIRespectsCredits(t *testing.T) {
	ni, r, rc := niRig(t)
	// Two packets on one class: the second must wait until the first
	// VC recycles (atomic buffers, no credits returned by the router
	// because we never let it evaluate).
	for id := uint64(1); id <= 2; id++ {
		ni.enqueue(&flit.Packet{ID: id, Src: 4, Dest: 5, Class: 0, Length: rc.BufDepth + 1})
	}
	var ejected []*flit.Flit
	sent := 0
	for c := int64(0); c < 20; c++ {
		if ok, _ := ni.tickInject(c, r, &ejected); ok {
			sent++
		}
		// The router consumes its staging, but we never hand its
		// returned credits back to the NI — the NI's credit view must
		// stop it after one buffer's worth of flits.
		r.BeginCycle(c)
		r.Evaluate(c)
	}
	if sent != rc.BufDepth {
		t.Fatalf("sent %d flits into a %d-deep buffer without credits", sent, rc.BufDepth)
	}
}

func TestNIPicksDistinctVCsPerClass(t *testing.T) {
	rc := router.Default(topology.NewMesh(3, 3))
	rc.Classes = 2
	rc.LenByClass = []int{1, 1}
	r := router.New(4, &rc, nil)
	ni := newNI(4, &rc, 1, nil, nil)
	ni.enqueue(&flit.Packet{ID: 1, Src: 4, Dest: 5, Class: 0, Length: 1})
	ni.enqueue(&flit.Packet{ID: 2, Src: 4, Dest: 5, Class: 1, Length: 1})
	var ejected []*flit.Flit
	var vcs []int
	for c := int64(0); c < 6; c++ {
		before := ni.Streaming()
		_ = before
		if ok, _ := ni.tickInject(c, r, &ejected); ok {
			// The flit was staged; recover its VC from the arrival that
			// the router records next cycle.
		}
		r.BeginCycle(c)
		r.Evaluate(c)
		for i := range r.Signals().Arrivals {
			vcs = append(vcs, r.Signals().Arrivals[i].VCField)
		}
	}
	if len(vcs) != 2 {
		t.Fatalf("arrived %d flits, want 2", len(vcs))
	}
	lo0, hi0 := rc.VCRange(0)
	lo1, hi1 := rc.VCRange(1)
	if vcs[0] < lo0 || vcs[0] >= hi0 {
		t.Fatalf("class-0 packet on VC %d outside [%d,%d)", vcs[0], lo0, hi0)
	}
	if vcs[1] < lo1 || vcs[1] >= hi1 {
		t.Fatalf("class-1 packet on VC %d outside [%d,%d)", vcs[1], lo1, hi1)
	}
}

func TestNIEjectionReturnsCredits(t *testing.T) {
	ni, r, _ := niRig(t)
	f := (&flit.Packet{ID: 1, Src: 5, Dest: 4, Length: 1}).Flits(1, 1)[0]
	f.VC = 2
	ni.flitArrived(f, 3)
	var ejected []*flit.Flit
	ni.tickInject(2, r, &ejected)
	if len(ejected) != 0 {
		t.Fatal("flit ejected before its link latency elapsed")
	}
	ni.tickInject(3, r, &ejected)
	if len(ejected) != 1 {
		t.Fatalf("ejected %d flits, want 1", len(ejected))
	}
	// The ejection credit must be staged at the router's local output.
	r.BeginCycle(4)
	r.Evaluate(4)
	if got := r.Signals().CreditsIn[int(topology.Local)]; !got.Get(2) {
		t.Fatalf("ejection credit not staged (credits=%s)", got)
	}
}

func TestNICloneIndependence(t *testing.T) {
	ni, r, _ := niRig(t)
	ni.enqueue(&flit.Packet{ID: 1, Src: 4, Dest: 5, Class: 0, Length: 5})
	var ejected []*flit.Flit
	ni.tickInject(0, r, &ejected) // header leaves, stream in progress
	c := ni.clone()
	if c.QueueLen() != ni.QueueLen() || c.Streaming() != ni.Streaming() {
		t.Fatal("clone state differs")
	}
	// Advance only the original; the clone must not move.
	r2 := router.New(4, ni.cfg, nil)
	ni.tickInject(1, r2, &ejected)
	if len(c.cur) == len(ni.cur) {
		t.Fatal("clone shares the streaming slice")
	}
}
