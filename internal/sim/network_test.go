package sim

import (
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

// TestLatencyLowerBound: no packet can beat the pipeline's physics —
// 4 intra-router cycles per hop plus the injection/ejection links.
func TestLatencyLowerBound(t *testing.T) {
	n := MustNew(cfg44(0.02, 9), nil)
	n.Run(2000)
	n.Drain(5000)
	for _, e := range n.Ejections() {
		hops := int64(n.Mesh().HopDistance(e.Flit.Src, e.Flit.Dest))
		minLatency := 4 + hops // NI link + per-hop minimum, loose bound
		if got := e.Cycle - e.Flit.InjectedAt; got < minLatency {
			t.Fatalf("flit %v delivered in %d cycles over %d hops (< %d)",
				e.Flit, got, hops, minLatency)
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
	bad := cfg44(-0.1, 0)
	if _, err := New(bad, nil); err == nil {
		t.Fatal("negative rate accepted")
	}
	rc := router.Default(topology.NewMesh(4, 4))
	rc.VCs = 0
	if _, err := New(Config{Router: rc, InjectionRate: 0.1}, nil); err == nil {
		t.Fatal("invalid router config accepted")
	}
}

// TestStepAllocatesPerPacketNotPerFlit guards the warm-up's allocation
// rate: 200 cycles of a warmed 8×8 mainline at the paper's 0.05 rate
// allocate for the packets they generate (a packet, its flits) and for
// nothing that happens once per flit per hop — a router's record of a
// flit's arrival (router.Arrival.Targets) is a piece of a backing array
// the router keeps. An allocation per arrival, which is what building
// Targets by append on a nil slice was, is well over twice the bound.
func TestStepAllocatesPerPacketNotPerFlit(t *testing.T) {
	n := MustNew(Config{Router: router.Default(topology.NewMesh(8, 8)), InjectionRate: 0.05, Seed: 3}, nil)
	n.Run(2000)
	n.ResetEjections()
	arrivals, runs := 0, 0
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 200; i++ {
			n.Step()
			for _, r := range n.steppedScratch {
				arrivals += len(r.Signals().Arrivals)
			}
		}
		n.ResetEjections() // as the mainline does: the log is not what is measured
		runs++
	})
	perRun := float64(arrivals) / float64(runs)
	if perRun < 2000 {
		t.Fatalf("%.0f flit arrivals in 200 cycles: the mesh is not carrying the load the bound is for", perRun)
	}
	if allocs > perRun/2 {
		t.Fatalf("%.0f allocations in 200 cycles with %.0f flit arrivals: want under one for every two arrivals", allocs, perRun)
	}
}
