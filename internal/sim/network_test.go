package sim

import (
	"math"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

func cfg44(rate float64, seed uint64) Config {
	return Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: rate, Seed: seed}
}

func ejectionsEqual(a, b []Ejection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Cycle != b[i].Cycle {
			return false
		}
		if a[i].Flit.PacketID != b[i].Flit.PacketID || a[i].Flit.Seq != b[i].Flit.Seq {
			return false
		}
	}
	return true
}

// TestRunDeterminism: two networks with identical configs produce
// byte-identical ejection logs.
func TestRunDeterminism(t *testing.T) {
	a := MustNew(cfg44(0.15, 7), nil)
	b := MustNew(cfg44(0.15, 7), nil)
	a.Run(1500)
	b.Run(1500)
	if !ejectionsEqual(a.Ejections(), b.Ejections()) {
		t.Fatal("identical configurations diverged")
	}
	if a.FlitsInjected() != b.FlitsInjected() || a.PacketsOffered() != b.PacketsOffered() {
		t.Fatal("injection accounting diverged")
	}
}

// TestSeedMatters: different seeds produce different traffic.
func TestSeedMatters(t *testing.T) {
	a := MustNew(cfg44(0.15, 7), nil)
	b := MustNew(cfg44(0.15, 8), nil)
	a.Run(1000)
	b.Run(1000)
	if ejectionsEqual(a.Ejections(), b.Ejections()) {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestCloneContinuationIdentical is the property the whole campaign
// architecture rests on: a clone taken mid-run, continued fault-free,
// must replay exactly the original's future.
func TestCloneContinuationIdentical(t *testing.T) {
	for _, warmCycles := range []int64{0, 137, 800} {
		orig := MustNew(cfg44(0.18, 21), nil)
		orig.Run(warmCycles)
		clone := orig.Clone(nil)
		orig.Run(1200)
		clone.Run(1200)
		if !ejectionsEqual(orig.Ejections(), clone.Ejections()) {
			t.Fatalf("clone at cycle %d diverged from original", warmCycles)
		}
		if orig.FlitsInjected() != clone.FlitsInjected() {
			t.Fatalf("clone at cycle %d injected %d vs %d",
				warmCycles, clone.FlitsInjected(), orig.FlitsInjected())
		}
	}
}

// TestCloneIsolation: mutating the clone's future must not leak into
// the original (deep copy, not aliasing).
func TestCloneIsolation(t *testing.T) {
	orig := MustNew(cfg44(0.18, 5), nil)
	orig.Run(500)
	pristine := orig.Clone(nil)

	// Wreck the clone with a permanent fault.
	s := fault.Site{Router: 5, Kind: fault.SA1Gnt, Port: int(topology.Local), VC: -1, Width: 4}
	wrecked := orig.Clone(fault.NewPlane(fault.Fault{Site: s, Bit: 0, Cycle: 500, Type: fault.Permanent}))
	wrecked.Run(800)

	orig.Run(800)
	pristine.Run(800)
	if !ejectionsEqual(orig.Ejections(), pristine.Ejections()) {
		t.Fatal("running a wrecked clone perturbed its siblings")
	}
}

// TestDrainEmptiesFabric: after injection stops, every in-flight flit
// reaches its destination.
func TestDrainEmptiesFabric(t *testing.T) {
	n := MustNew(cfg44(0.25, 3), nil)
	n.Run(1000)
	if !n.Drain(8000) {
		t.Fatalf("drain failed: inflight=%d", n.InFlight())
	}
	if n.FlitsInjected() != n.FlitsEjected() {
		t.Fatalf("conservation: injected %d ejected %d", n.FlitsInjected(), n.FlitsEjected())
	}
}

// TestLatencyLowerBound holds a lone packet to the zero-load latency's
// closed form (DESIGN.md §3): over H hops a P-stage router pipeline (4,
// or 3 when VA and SA are speculative) delivers the head flit
// P·(H+1) + 1 cycles after the packet is generated, and the tail L−1
// cycles after the head. Every (source, destination) pair of the mesh in
// turn, on an otherwise empty network, over {4×4, 8×8} × VCs {2, 4} ×
// speculative on/off × packet length {1, 5}: no packet may be faster,
// and at zero load none may be slower.
func TestLatencyLowerBound(t *testing.T) {
	for _, k := range []int{4, 8} {
		for _, vcs := range []int{2, 4} {
			for _, spec := range []bool{false, true} {
				for _, length := range []int{1, 5} {
					mesh := topology.NewMesh(k, k)
					rc := router.Default(mesh)
					rc.VCs, rc.Speculative, rc.LenByClass = vcs, spec, []int{length}
					p := int64(4)
					if spec {
						p = 3
					}
					n := MustNew(Config{Router: rc, Seed: 9}, nil)
					for src := 0; src < mesh.Nodes(); src++ {
						for dst := 0; dst < mesh.Nodes(); dst++ {
							id := n.InjectPacket(src, dst, 0)
							born, logged := n.Cycle(), len(n.Ejections())
							for !n.Quiet() {
								n.Step()
							}
							h := int64(mesh.HopDistance(src, dst))
							want := p*(h+1) + 1
							for _, e := range n.Ejections()[logged:] {
								if e.Flit.PacketID != id || e.Node != dst {
									t.Fatalf("%d×%d: packet %d %d→%d: ejected %v at node %d", k, k, id, src, dst, e.Flit, e.Node)
								}
								if got := e.Cycle - born; got != want+int64(e.Flit.Seq) {
									t.Fatalf("%d×%d, %d VCs, speculative %t, %d-flit packets: flit %d of %d→%d (%d hops) took %d cycles, want %d",
										k, k, vcs, spec, length, e.Flit.Seq, src, dst, h, got, want+int64(e.Flit.Seq))
								}
							}
							if got := len(n.Ejections()) - logged; got != length {
								t.Fatalf("%d×%d: packet %d→%d delivered %d of %d flits", k, k, src, dst, got, length)
							}
						}
					}
				}
			}
		}
	}
}

// TestMeanZeroLoadLatency takes TestLatencyLowerBound's closed form to
// random traffic at rate → 0: uniform traffic at 0.002 flits/node/cycle
// on the 4×4 and 8×8 meshes. No delivered packet may beat the closed form
// for its own hop count H, P·(H+1) + 1 + (L−1) to its tail; the mean
// excess over it — what the packets lost to each other and to queueing
// behind their own source's earlier packets — must stay below
// maxMeanExcess cycles (DESIGN.md §3); and the sampled distances must be
// uniform traffic's, their mean within three standard errors of 2k/3.
func TestMeanZeroLoadLatency(t *testing.T) {
	const (
		rate          = 0.002
		cycles        = 40000
		maxMeanExcess = 0.1
	)
	for _, k := range []int{4, 8} {
		mesh := topology.NewMesh(k, k)
		n := MustNew(Config{Router: router.Default(mesh), InjectionRate: rate, Seed: 21}, nil)
		n.Run(cycles)
		if !n.Drain(10000) {
			t.Fatalf("%d×%d: the network did not drain at %g flits/node/cycle", k, k, rate)
		}
		var packets, hops, excess int64
		for _, e := range n.Ejections() {
			f := e.Flit
			if f.Seq != f.Length-1 {
				continue
			}
			h := int64(mesh.HopDistance(f.Src, f.Dest))
			floor := 4*(h+1) + 1 + int64(f.Length-1)
			got := e.Cycle - f.InjectedAt
			if got < floor {
				t.Fatalf("%d×%d: packet %d (%d hops) delivered its tail in %d cycles, below the closed form's %d", k, k, f.PacketID, h, got, floor)
			}
			packets, hops, excess = packets+1, hops+h, excess+got-floor
		}
		// The distance of a uniform pair: its mean over the ordered pairs
		// of distinct nodes is 2k/3, and its variance bounds the sample
		// mean's spread.
		var sum, sumSq, pairs float64
		for a := 0; a < mesh.Nodes(); a++ {
			for b := 0; b < mesh.Nodes(); b++ {
				if a != b {
					d := float64(mesh.HopDistance(a, b))
					sum, sumSq, pairs = sum+d, sumSq+d*d, pairs+1
				}
			}
		}
		mu := sum / pairs
		if want := 2 * float64(k) / 3; math.Abs(mu-want) > 1e-9 {
			t.Fatalf("%d×%d: uniform pairs are %.4f hops apart on average, want 2k/3 = %.4f", k, k, mu, want)
		}
		se := math.Sqrt((sumSq/pairs - mu*mu) / float64(packets))
		meanHops, meanExcess := float64(hops)/float64(packets), float64(excess)/float64(packets)
		t.Logf("%d×%d: %d packets, %.3f hops (2k/3 = %.3f, standard error %.3f), %.4f cycles over the closed form on average",
			k, k, packets, meanHops, mu, se, meanExcess)
		if packets < 200 {
			t.Errorf("%d×%d: %d packets delivered, too few to judge a mean", k, k, packets)
		}
		if math.Abs(meanHops-mu) > 3*se {
			t.Errorf("%d×%d: delivered packets travelled %.3f hops on average, more than three standard errors (%.3f) from 2k/3 = %.3f", k, k, meanHops, se, mu)
		}
		if meanExcess >= maxMeanExcess {
			t.Errorf("%d×%d: packets took %.4f cycles more than the closed form on average, want below %g", k, k, meanExcess, maxMeanExcess)
		}
	}
}

// TestInjectionRateHonored: delivered throughput tracks the offered
// rate well below saturation.
func TestInjectionRateHonored(t *testing.T) {
	const rate = 0.10
	n := MustNew(cfg44(rate, 13), nil)
	n.Run(4000)
	n.Drain(8000)
	perNodeCycle := float64(n.FlitsEjected()) / 4000 / float64(n.Mesh().Nodes())
	if perNodeCycle < 0.8*rate || perNodeCycle > 1.2*rate {
		t.Fatalf("throughput %.4f vs offered %.2f", perNodeCycle, rate)
	}
}

// TestAllPatternsDeliver: every traffic pattern yields a draining
// network with correct deliveries.
func TestAllPatternsDeliver(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bitcomplement", "bitreverse", "shuffle", "neighbor", "hotspot"} {
		pat, err := traffic.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfg44(0.08, 17)
		cfg.Pattern = pat
		n := MustNew(cfg, nil)
		n.Run(1200)
		if !n.Drain(8000) {
			t.Errorf("%s: failed to drain", name)
			continue
		}
		for _, e := range n.Ejections() {
			if e.Flit.Dest != e.Node {
				t.Errorf("%s: misdelivery %v at node %d", name, e.Flit, e.Node)
				break
			}
		}
		if n.FlitsEjected() == 0 {
			t.Errorf("%s: no traffic", name)
		}
	}
}

// TestMonitorCallbacks: monitors see every injection and ejection.
type countingMonitor struct {
	BaseMonitor
	pkts, flits, cycles int
	routerCycles        int
}

func (m *countingMonitor) PacketInjected(int64, int, *flit.Packet)     { m.pkts++ }
func (m *countingMonitor) FlitEjected(int64, int, *flit.Flit)          { m.flits++ }
func (m *countingMonitor) EndCycle(int64)                              { m.cycles++ }
func (m *countingMonitor) RouterCycle(*router.Router, *router.Signals) { m.routerCycles++ }

func TestMonitorCallbacks(t *testing.T) {
	// Reference engine: every router is visited every cycle.
	rcfg := cfg44(0.1, 1)
	rcfg.DisableSoA = true
	n := MustNew(rcfg, nil)
	m := &countingMonitor{}
	n.AttachMonitor(m)
	n.Run(500)
	n.Drain(5000)
	if int64(m.pkts) != n.PacketsOffered() {
		t.Errorf("monitor saw %d packets, offered %d", m.pkts, n.PacketsOffered())
	}
	if int64(m.flits) != n.FlitsEjected() {
		t.Errorf("monitor saw %d flits, ejected %d", m.flits, n.FlitsEjected())
	}
	if int64(m.cycles) != n.Cycle() {
		t.Errorf("monitor saw %d cycles, simulated %d", m.cycles, n.Cycle())
	}
	if int64(m.routerCycles) != n.Cycle()*int64(n.Mesh().Nodes()) {
		t.Errorf("monitor saw %d router-cycles", m.routerCycles)
	}

	// SoA engine: inert routers are skipped, so the monitor sees fewer
	// router visits but the same packet/flit/cycle stream.
	n2 := MustNew(cfg44(0.1, 1), nil)
	m2 := &countingMonitor{}
	n2.AttachMonitor(m2)
	n2.Run(500)
	n2.Drain(5000)
	if int64(m2.pkts) != n2.PacketsOffered() || int64(m2.flits) != n2.FlitsEjected() || int64(m2.cycles) != n2.Cycle() {
		t.Errorf("SoA monitor stream mismatch: pkts %d/%d flits %d/%d cycles %d/%d",
			m2.pkts, n2.PacketsOffered(), m2.flits, n2.FlitsEjected(), m2.cycles, n2.Cycle())
	}
	if int64(m2.routerCycles) > n2.Cycle()*int64(n2.Mesh().Nodes()) {
		t.Errorf("SoA monitor saw %d router-cycles, more than %d routers could step", m2.routerCycles, n2.Cycle()*int64(n2.Mesh().Nodes()))
	}
	if m2.routerCycles >= m.routerCycles {
		t.Errorf("SoA engine visited %d router-cycles, reference %d: inert skip had no effect", m2.routerCycles, m.routerCycles)
	}
}

// TestStopResumeInjection: no packets are generated while stopped.
func TestStopResumeInjection(t *testing.T) {
	n := MustNew(cfg44(0.2, 2), nil)
	n.Run(300)
	n.StopInjection()
	before := n.PacketsOffered()
	n.Run(300)
	if n.PacketsOffered() != before {
		t.Fatal("packets generated while injection stopped")
	}
	n.ResumeInjection()
	n.Run(300)
	if n.PacketsOffered() == before {
		t.Fatal("injection did not resume")
	}
}

// TestTwoClassTraffic: message classes keep their own VC partitions and
// lengths.
func TestTwoClassTraffic(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	rc.Classes = 2
	rc.LenByClass = []int{1, 5}
	n := MustNew(Config{Router: rc, InjectionRate: 0.15, Seed: 4, ClassWeights: []float64{0.5, 0.5}}, nil)
	n.Run(2000)
	if !n.Drain(8000) {
		t.Fatal("two-class network failed to drain")
	}
	counts := map[uint64]int{}
	classes := map[uint64]int{}
	for _, e := range n.Ejections() {
		counts[e.Flit.PacketID]++
		classes[e.Flit.PacketID] = e.Flit.Class
	}
	sawShort, sawLong := false, false
	for id, c := range counts {
		want := rc.LenByClass[classes[id]]
		if c != want {
			t.Fatalf("packet %d class %d delivered %d flits, want %d", id, classes[id], c, want)
		}
		if want == 1 {
			sawShort = true
		} else {
			sawLong = true
		}
	}
	if !sawShort || !sawLong {
		t.Fatal("both classes should appear")
	}
}

// TestAdaptiveRoutingDelivers: the adaptive algorithm drains under
// hotspot pressure.
func TestAdaptiveRoutingDelivers(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	rc.Alg = routing.Adaptive{}
	cfg := Config{Router: rc, InjectionRate: 0.12, Seed: 6, Pattern: traffic.NewHotspot(nil, 0.5)}
	n := MustNew(cfg, nil)
	n.Run(2000)
	if !n.Drain(10000) {
		t.Fatal("adaptive network failed to drain")
	}
	for _, e := range n.Ejections() {
		if e.Flit.Dest != e.Node {
			t.Fatalf("misdelivery under adaptive routing: %v at %d", e.Flit, e.Node)
		}
	}
}

// TestInvalidConfigRejected: New surfaces configuration errors.
func TestInvalidConfigRejected(t *testing.T) {
	for _, rate := range []float64{-0.1, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(cfg44(rate, 0), nil); err == nil {
			t.Fatalf("injection rate %g accepted", rate)
		}
	}
	rc := router.Default(topology.NewMesh(4, 4))
	rc.VCs = 0
	if _, err := New(Config{Router: rc, InjectionRate: 0.1}, nil); err == nil {
		t.Fatal("invalid router config accepted")
	}
}

// TestStepAllocatesPerPacketNotPerFlit guards the warm-up's allocation
// rate: 200 cycles of a warmed 8×8 mainline at the paper's 0.05 rate
// allocate for the packets they generate — a packet's flits in one block
// and the slice that points into them (the NI queues the packet itself by
// value), two, with one of slack for the slices that grow — and for
// nothing that happens once per flit per hop. The flits the cycles carry
// are counted where they enter the fabric (FlitsInjected): the mainline's
// record is quiet and holds no Arrivals. A flit allocated on its own (five
// a packet, where the block is one) or an allocation per arrival is well
// over the bound.
func TestStepAllocatesPerPacketNotPerFlit(t *testing.T) {
	n := MustNew(Config{Router: router.Default(topology.NewMesh(8, 8)), InjectionRate: 0.05, Seed: 3}, nil)
	n.Run(2000)
	n.ResetEjections()
	flits, pkts := n.FlitsInjected(), n.PacketsOffered()
	runs := 0
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 200; i++ {
			n.Step()
		}
		n.ResetEjections() // as the mainline does: the log is not what is measured
		runs++
	})
	perRun := float64(n.FlitsInjected()-flits) / float64(runs)
	pktsPerRun := float64(n.PacketsOffered()-pkts) / float64(runs)
	if perRun < 500 {
		t.Fatalf("%.0f flits injected in 200 cycles: the mesh is not carrying the load the bound is for", perRun)
	}
	if allocs > 3*pktsPerRun {
		t.Fatalf("%.0f allocations in 200 cycles with %.0f packets generated (%.0f flits): want at most three a packet", allocs, pktsPerRun, perRun)
	}
	t.Logf("%.0f allocations, %.0f packets, %.0f flits in 200 cycles", allocs, pktsPerRun, perRun)
}
