package forever

import (
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

func netWithForever(t *testing.T, rate float64, opts Options, plane *fault.Plane) (*sim.Network, *Monitor) {
	t.Helper()
	rc := router.Default(topology.NewMesh(4, 4))
	n := sim.MustNew(sim.Config{Router: rc, InjectionRate: rate, Seed: 23}, plane)
	m := NewMonitor(n.RouterConfig(), opts)
	n.AttachMonitor(m)
	return n, m
}

// TestFaultFreeSilence: a well-tuned epoch never flags a healthy
// network.
func TestFaultFreeSilence(t *testing.T) {
	n, m := netWithForever(t, 0.12, Options{Epoch: 400, HopLatency: 1}, nil)
	n.Run(4000)
	n.Drain(8000)
	if m.Detected() {
		t.Fatalf("ForEVeR flagged a healthy network at cycle %d", m.FirstDetection())
	}
}

// TestShortEpochFalsePositive: the paper's tuning argument — too short
// an epoch flags healthy congestion.
func TestShortEpochFalsePositive(t *testing.T) {
	n, m := netWithForever(t, 0.35, Options{Epoch: 20, HopLatency: 1}, nil)
	n.Run(3000)
	if !m.Detected() {
		t.Fatal("a 20-cycle epoch should false-positive under load")
	}
}

// TestDropDetectedAtEpochBoundary: a dropped flit leaves a counter
// stuck nonzero; the flag arrives at an epoch boundary, quantizing the
// latency — the Figure 7 contrast.
func TestDropDetectedAtEpochBoundary(t *testing.T) {
	const epoch = 300
	// A permanent grant suppression starves a port: flits never arrive.
	s := fault.Site{Router: 5, Kind: fault.SA1Gnt, Port: int(topology.Local), VC: -1, Width: 4}
	f := fault.Fault{Site: s, Bit: 0, Cycle: 500, Type: fault.Permanent}
	n, m := netWithForever(t, 0.12, Options{Epoch: epoch, HopLatency: 1, DisableAC: true}, fault.NewPlane(f))
	n.Run(3000)
	if !m.Detected() {
		t.Fatal("stuck traffic not detected")
	}
	d := m.FirstDetectionAfter(500)
	if d < 0 {
		t.Fatal("no post-injection detection")
	}
	if (d+1)%epoch != 0 {
		t.Fatalf("detection at cycle %d is not an epoch boundary", d)
	}
}

// TestAllocationComparatorInstant: with the AC on, an arbiter fault is
// flagged in the same cycle, independent of epochs.
func TestAllocationComparatorInstant(t *testing.T) {
	s := fault.Site{Router: 5, Kind: fault.SA1Gnt, Port: int(topology.Local), VC: -1, Width: 4}
	f := fault.Fault{Site: s, Bit: 3, Cycle: 500, Type: fault.Transient}
	n, m := netWithForever(t, 0.12, Options{Epoch: 10000, HopLatency: 1}, fault.NewPlane(f))
	n.Run(600)
	d := m.FirstDetectionAfter(500)
	if d != 500 {
		t.Fatalf("AC detection at %d, want 500", d)
	}
}

// TestAllocationComparatorRules: what the Allocation Comparator flags of
// one arbiter's cycle, in each of the four banks it watches. An arbiter
// that granted nothing is passed over before either rule is tried.
func TestAllocationComparatorRules(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	r := router.New(5, &rc, nil)
	for _, tc := range []struct {
		name     string
		req, gnt bitvec.Vec
		flagged  bool
	}{
		{"no grant, no request", 0, 0, false},
		{"no grant", 0b0110, 0, false},
		{"one requested grant", 0b0110, 0b0100, false},
		{"grant without request", 0b0110, 0b1000, true},
		{"grant without any request", 0, 0b0001, true},
		{"two-hot grant", 0b0110, 0b0110, true},
	} {
		for bank := 0; bank < 4; bank++ {
			var s router.Signals
			s.Cycle = 42
			s.SetArbiter(bank, bank+1, router.ReqGnt{Req: tc.req, Gnt: tc.gnt})
			m := NewMonitor(&rc, Options{})
			m.RouterCycle(r, &s)
			if m.Detected() != tc.flagged {
				t.Errorf("%s in bank %d: flagged = %t, want %t", tc.name, bank, m.Detected(), tc.flagged)
			}
			if tc.flagged && m.FirstDetection() != 42 {
				t.Errorf("%s in bank %d: flagged at cycle %d, want the record's 42", tc.name, bank, m.FirstDetection())
			}
		}
	}
}

// TestEndToEndChecks: misdelivered, corrupted and out-of-order flits
// are flagged at ejection.
func TestEndToEndChecks(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	m := NewMonitor(&rc, Options{Epoch: 1000})
	p := &flit.Packet{ID: 1, Src: 0, Dest: 5, Length: 5, Payload: 7}
	fl := p.Flits(1, 1)

	// Wrong node.
	m.FlitEjected(10, 3, fl[0])
	if !m.Detected() {
		t.Fatal("misdelivery not flagged")
	}

	m2 := NewMonitor(&rc, Options{Epoch: 1000})
	bad := fl[1].Clone()
	bad.Payload ^= 2
	m2.FlitEjected(10, 5, fl[0])
	m2.FlitEjected(11, 5, bad)
	if !m2.Detected() {
		t.Fatal("EDC failure not flagged")
	}

	m3 := NewMonitor(&rc, Options{Epoch: 1000})
	m3.FlitEjected(10, 5, fl[0])
	m3.FlitEjected(11, 5, fl[2]) // skipped seq 1
	if !m3.Detected() {
		t.Fatal("order violation not flagged")
	}

	m4 := NewMonitor(&rc, Options{Epoch: 1000})
	m4.FlitEjected(10, 5, fl[1]) // body without header
	if !m4.Detected() {
		t.Fatal("headerless packet not flagged")
	}

	// Healthy sequence: silent.
	m5 := NewMonitor(&rc, Options{Epoch: 1000})
	for i, f := range fl {
		m5.FlitEjected(int64(10+i), 5, f)
	}
	if m5.Detected() {
		t.Fatal("healthy delivery flagged")
	}
}

// TestCloneMonitorIndependence: campaign forks must not share counter
// state.
func TestCloneMonitorIndependence(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	m := NewMonitor(&rc, Options{Epoch: 100})
	p := &flit.Packet{ID: 1, Src: 0, Dest: 5, Length: 5}
	m.PacketInjected(0, 0, p)
	m.EndCycle(10) // notification delivered: counter[5] = 5

	c := m.CloneMonitor().(*Monitor)
	c.ClearDetections()
	// Starve the clone: the counter was zero at the first epoch's start
	// (satisfying that epoch), so the stuck counter flags at the end of
	// the second epoch.
	c.EndCycle(99)
	c.EndCycle(199)
	if !c.Detected() {
		t.Fatal("clone lost the warm counter state")
	}
	if m.Detected() {
		t.Fatal("original shares detection state with clone")
	}
}

// TestClearDetections: only detection bookkeeping resets.
func TestClearDetections(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	m := NewMonitor(&rc, Options{Epoch: 100})
	p := &flit.Packet{ID: 1, Src: 0, Dest: 2, Length: 5}
	m.PacketInjected(0, 0, p)
	m.EndCycle(10)
	m.EndCycle(99)
	m.EndCycle(199) // second epoch boundary: stuck counter flags
	if !m.Detected() {
		t.Fatal("setup: no detection")
	}
	m.ClearDetections()
	if m.Detected() || m.FirstDetection() != -1 || len(m.Detections()) != 0 {
		t.Fatal("ClearDetections incomplete")
	}
}

// TestDefaultsApplied: zero options resolve to the paper's tuning.
func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Epoch != 1500 || o.HopLatency != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	d := DefaultOptions()
	if d.Epoch != 1500 {
		t.Fatalf("DefaultOptions = %+v", d)
	}
}
