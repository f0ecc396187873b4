package forever

import (
	"reflect"
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// Detected reports whether m has raised any detection.
func (m *Monitor) Detected() bool { return len(m.detections) > 0 }

// FirstDetection returns m's first detection cycle, or -1.
func (m *Monitor) FirstDetection() int64 {
	if len(m.detections) == 0 {
		return -1
	}
	return m.detections[0]
}

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

// TestDropDetectedAtEpochBoundary: a fault the Allocation Comparator
// cannot see — a stuck bit of an RC unit's output direction misroutes
// packets through well-formed allocations — leaves a delivery counter stuck
// nonzero; the flag arrives at an epoch boundary, quantizing the latency:
// the Figure 7 contrast.
func TestDropDetectedAtEpochBoundary(t *testing.T) {
	const epoch = 300
	s := fault.Site{Router: 5, Kind: fault.RCOutDir, Port: int(topology.North), VC: -1, Width: 3}
	f := fault.Fault{Site: s, Bit: 0, Cycle: 500, Type: fault.Permanent}
	n, m := netWithForever(t, 0.12, Options{Epoch: epoch, HopLatency: 1}, fault.NewPlane(f))
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
	if d != 899 {
		t.Fatalf("first detection at cycle %d, want 899 (the second boundary after the strike)", d)
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

// monitorOf returns the ForEVeR monitor attached to n.
func monitorOf(n *sim.Network) *Monitor { return n.Monitors()[0].(*Monitor) }

// TestSpliceHistoryIsWhole: a golden run's record kept in two pieces, on
// two networks that met at the seam, and spliced (SpliceHistory) equals
// the record kept whole on one network — and a follower of either answers
// FirstDetectionAfter, ProjectFrozenDetection and PendingEmpty alike at
// every boundary. In the "stuck" run a permanent fault the Allocation
// Comparator cannot see leaves a counter stuck, which flags at every epoch
// boundary from 899 on: its seams put detections on both sides and
// notifications in flight across each; one sits between two boundaries,
// and two on an epoch boundary, the boundary cycle ending the first piece
// and opening the second. In the "drained" run injection stops and every
// counter is back at zero before the seam, for good.
func TestSpliceHistoryIsWhole(t *testing.T) {
	const epoch, from, end = 300, 600, 1700
	site := fault.Site{Router: 5, Kind: fault.RCOutDir, Port: int(topology.North), VC: -1, Width: 3}
	for _, tc := range []struct {
		name   string
		plane  *fault.Plane
		stopAt int64 // injection stops here (0: never)
		seams  []int64
	}{
		{"stuck", fault.NewPlane(fault.Fault{Site: site, Bit: 0, Cycle: 500, Type: fault.Permanent}), 0, []int64{1051, 1199, 1200}},
		{"drained", nil, 900, []int64{1300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := netWithForever(t, 0.12, Options{Epoch: epoch, HopLatency: 1}, tc.plane)
			n.Run(from)
			// net is a network with the plane it steps under.
			type net struct {
				*sim.Network
				plane *fault.Plane
			}
			// fork clones at, its monitor keeping a record from there.
			fork := func(at net) net {
				c := net{plane: at.plane.Clone()}
				c.Network = at.Clone(c.plane)
				monitorOf(c.Network).StartHistory(c.Cycle())
				return c
			}
			// run steps c to cycle to, stopping injection at tc.stopAt.
			run := func(c net, to int64) net {
				for c.Cycle() < to {
					if c.Cycle() == tc.stopAt {
						c.StopInjection()
					}
					c.Step()
				}
				return c
			}
			at := net{n, tc.plane}
			whole := run(fork(at), end)
			wm := monitorOf(whole.Network)
			for _, seam := range tc.seams {
				head := run(fork(at), seam)
				hm := monitorOf(head.Network)
				tail := fork(head)
				tm := monitorOf(tail.Network)
				if hm.StateFold() != tm.StateFold() {
					t.Fatalf("seam %d: a clone's monitor folds differently", seam)
				}
				run(tail, end)
				tm.SpliceHistory(hm)

				if tc.stopAt == 0 {
					if len(hm.pending) == 0 {
						t.Fatalf("seam %d: no notification in flight across the seam", seam)
					}
					if d := wm.Detections(); len(d) == 0 || d[0] >= seam || d[len(d)-1] < seam {
						t.Fatalf("seam %d: detections %v are not on both sides of it", seam, d)
					}
				} else if wm.hist.zeroFrom >= seam || tm.hist.zeroFrom != wm.hist.zeroFrom {
					t.Fatalf("seam %d: counters last nonzero up to boundary %d, spliced record says %d", seam, wm.hist.zeroFrom, tm.hist.zeroFrom)
				}
				if !reflect.DeepEqual(tm.hist, wm.hist) {
					t.Errorf("seam %d: the spliced record differs from the whole one", seam)
				}
				if !reflect.DeepEqual(tm.Detections(), wm.Detections()) || tm.StateFold() != wm.StateFold() {
					t.Errorf("seam %d: the tail monitor ends in another state than the whole one", seam)
				}
				if hm.hist != nil {
					t.Errorf("seam %d: the first piece still holds its record after the splice", seam)
				}
				followAlike(t, monitorOf(n), wm, tm, whole.Ejections(), from, end, seam)
			}
		})
	}
}

// followAlike stands two followers where a run's monitor stands — clones
// of start, at the records' start — one following a, the other b, shows
// them the same ejections (ejs) at the nodes they track, which join
// before, on and after the seam, and holds their answers equal at every
// boundary up to end.
func followAlike(t *testing.T, start, a, b *Monitor, ejs []sim.Ejection, from, end, seam int64) {
	t.Helper()
	fa, fb := start.CloneMonitor().(*Monitor), start.CloneMonitor().(*Monitor)
	fa.Follow(a)
	fb.Follow(b)
	join := map[int64]int{from + 40: 5, seam: 10, seam + 30: 0}
	tracked := map[int]bool{}
	for cyc := from; cyc < end; cyc++ {
		if node, ok := join[cyc]; ok {
			fa.TrackNode(node)
			fb.TrackNode(node)
			tracked[node] = true
		}
		for ; len(ejs) > 0 && ejs[0].Cycle <= cyc; ejs = ejs[1:] {
			if e := ejs[0]; e.Cycle == cyc && tracked[e.Node] {
				fa.FlitEjected(cyc, e.Node, e.Flit)
				fb.FlitEjected(cyc, e.Node, e.Flit)
			}
		}
		fa.EndCycle(cyc)
		fb.EndCycle(cyc)
		for _, q := range []int64{from, cyc - 100, seam} {
			if x, y := fa.FirstDetectionAfter(q), fb.FirstDetectionAfter(q); x != y {
				t.Fatalf("seam %d, boundary %d: FirstDetectionAfter(%d) = %d following the whole record, %d the spliced", seam, cyc+1, q, x, y)
			}
		}
		if x, y := fa.ProjectFrozenDetection(cyc+1, end), fb.ProjectFrozenDetection(cyc+1, end); x != y {
			t.Fatalf("seam %d, boundary %d: ProjectFrozenDetection = %d following the whole record, %d the spliced", seam, cyc+1, x, y)
		}
		if x, y := fa.PendingEmpty(), fb.PendingEmpty(); x != y {
			t.Fatalf("seam %d, boundary %d: PendingEmpty = %t following the whole record, %t the spliced", seam, cyc+1, x, y)
		}
	}
}

// TestStateFoldSeesEveryPart: changing any one part of a monitor's state
// — a counter, a zero-crossing flag, a notification in flight, a packet
// under reassembly, a detection — changes its fold, and a clone folds as
// its original.
func TestStateFoldSeesEveryPart(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	m := NewMonitor(&rc, Options{Epoch: 100})
	m.PacketInjected(0, 0, &flit.Packet{ID: 1, Src: 0, Dest: 5, Length: 5})
	m.PacketInjected(0, 1, &flit.Packet{ID: 2, Src: 1, Dest: 15, Length: 5})
	m.EndCycle(3) // the first notification has matured, the second not
	head := &flit.Flit{PacketID: 1, Seq: 0, Dest: 5, Kind: flit.Head}
	head.SealEDC()
	m.FlitEjected(4, 5, head)
	m.EndCycle(4)
	m.flag(4, 5)
	base := m.StateFold()
	for _, tc := range []struct {
		name string
		edit func(c *Monitor)
	}{
		{"counter", func(c *Monitor) { c.counters[3]++ }},
		{"zero-crossing flag", func(c *Monitor) { c.zeroSeen[5] = !c.zeroSeen[5] }},
		{"notification", func(c *Monitor) { c.pending[0].at++ }},
		{"reassembly", func(c *Monitor) { c.open[0].seq++ }},
		{"detection", func(c *Monitor) { c.detNodes[0]++ }},
	} {
		c := m.CloneMonitor().(*Monitor)
		if c.StateFold() != base {
			t.Fatalf("a clone folds differently")
		}
		if tc.edit(c); c.StateFold() == base {
			t.Errorf("the fold does not see the %s", tc.name)
		}
	}
}
