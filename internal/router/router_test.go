package router

import (
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
)

// rig drives a single router directly: flits are staged by hand and
// departures collected per cycle.
type rig struct {
	t     *testing.T
	r     *Router
	cycle int64
}

func newRig(t *testing.T, mut func(*Config)) *rig {
	t.Helper()
	cfg := Default(topology.NewMesh(3, 3))
	if mut != nil {
		mut(&cfg)
	}
	// Router 4 is the center of a 3×3 mesh: all five ports present.
	return &rig{t: t, r: New(4, &cfg, nil)}
}

// step advances one cycle and returns the cycle's departures.
func (g *rig) step() []Departure {
	g.r.BeginCycle(g.cycle)
	g.r.Evaluate(g.cycle)
	g.cycle++
	return g.r.Signals().Departures
}

// packet builds the flits of a packet headed to mesh node dest.
func (g *rig) packet(id uint64, dest int, length int) []*flit.Flit {
	p := &flit.Packet{ID: id, Src: 0, Dest: dest, Class: 0, Length: length}
	dx, dy := g.r.Config().Mesh.Coords(dest)
	return p.Flits(dx, dy)
}

// TestHeaderPipelineDepth pins the pipeline timing: a header staged for
// cycle t completes BW/RC at t, VA at t+1, SA at t+2 and traverses the
// crossbar at t+3 — four intra-router cycles, as in the paper's
// four-stage router plus link traversal.
func TestHeaderPipelineDepth(t *testing.T) {
	g := newRig(t, nil)
	dest := g.r.Config().Mesh.NodeAt(2, 1) // east of center
	fl := g.packet(1, dest, 5)
	fl[0].VC = 0
	g.r.StageArrival(topology.Local, fl[0])

	// Cycle 0: BW + RC.
	if dep := g.step(); len(dep) != 0 {
		t.Fatalf("departure too early: %v", dep)
	}
	s := g.r.Signals()
	if len(s.RCExecs) != 1 || s.RCExecs[0].OutDir != int(topology.East) {
		t.Fatalf("RC at cycle 0: %+v", s.RCExecs)
	}
	// Cycle 1: VA.
	if dep := g.step(); len(dep) != 0 {
		t.Fatal("departure too early")
	}
	if n := len(g.r.Signals().VAAssigns); n != 1 {
		t.Fatalf("VA assigns at cycle 1: %d", n)
	}
	// Cycle 2: SA.
	if dep := g.step(); len(dep) != 0 {
		t.Fatal("departure too early")
	}
	if n := len(g.r.Signals().SALatches); n != 1 {
		t.Fatalf("SA latches at cycle 2: %d", n)
	}
	// Cycle 3: ST — the header departs east.
	dep := g.step()
	if len(dep) != 1 || dep[0].OutPort != int(topology.East) || !dep[0].Flit.Kind.IsHead() {
		t.Fatalf("header did not traverse at cycle 3: %v", dep)
	}
}

// TestBodyFlitsStreamBackToBack: once the wormhole is set up, one flit
// leaves per cycle.
func TestBodyFlitsStreamBackToBack(t *testing.T) {
	g := newRig(t, nil)
	dest := g.r.Config().Mesh.NodeAt(2, 1)
	fl := g.packet(1, dest, 5)
	for i, f := range fl {
		f.VC = 0
		_ = i
	}
	// Stage one flit per cycle, as a link would deliver them.
	var departed []Departure
	for c := 0; c < 12; c++ {
		if c < len(fl) {
			g.r.StageArrival(topology.Local, fl[c])
		}
		departed = append(departed, g.step()...)
	}
	if len(departed) != 5 {
		t.Fatalf("departed %d flits, want 5", len(departed))
	}
	for i := 1; i < len(departed); i++ {
		if departed[i].Flit.Seq != i {
			t.Fatalf("out of order: %v", departed[i].Flit)
		}
	}
}

// TestCreditAccounting: each SA grant reserves one downstream credit;
// credits return via StageCredit and the output VC recycles only after
// the tail has gone and every credit is home (buffer atomicity).
func TestCreditAccounting(t *testing.T) {
	g := newRig(t, nil)
	cfg := g.r.Config()
	dest := cfg.Mesh.NodeAt(2, 1)
	fl := g.packet(1, dest, 3)
	for c := 0; c < 3; c++ {
		fl[c].VC = 0
		g.r.StageArrival(topology.Local, fl[c])
		g.step()
	}
	// Run the packet out.
	sent := 0
	for c := 0; c < 10 && sent < 3; c++ {
		sent += len(g.step())
	}
	if sent != 3 {
		t.Fatalf("sent %d flits", sent)
	}
	// All 3 flits left on East VC 0: 3 credits consumed.
	i := g.r.iv(int(topology.East), 0)
	st := &g.r.st
	if got := int(st.Credits[i]); got != cfg.BufDepth-3 {
		t.Fatalf("credits = %d, want %d", got, cfg.BufDepth-3)
	}
	if st.OutFlags[i]&soa.OutFree != 0 {
		t.Fatal("output VC free before credits returned")
	}
	if st.OutFlags[i]&soa.OutTailSent == 0 {
		t.Fatal("tail not marked sent")
	}
	// Return the 3 credits; the VC must recycle.
	for c := 0; c < 3; c++ {
		g.r.StageCredit(topology.East, 0)
		g.step()
	}
	if st.OutFlags[i] != soa.OutFree || int(st.Credits[i]) != cfg.BufDepth {
		t.Fatalf("output VC not recycled: flags %#x, credits %d", st.OutFlags[i], st.Credits[i])
	}
}

// TestIdleCreditFaultFires: a permanent fault on a credit counter fires
// on the plane's first live cycle even when the router never uses the
// counter — the pre-cycle snapshot's consult of it is a read. Campaign
// reports carry RunResult.Fired, so this is report-visible.
func TestIdleCreditFaultFires(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	site := fault.Site{Router: 4, Kind: fault.CreditCountReg, Port: int(topology.East), VC: 1, Width: fault.BitsFor(cfg.BufDepth)}
	plane := fault.NewPlane(fault.Fault{Site: site, Bit: 0, Cycle: 5, Type: fault.Permanent})
	g := &rig{t: t, r: New(4, &cfg, plane)}
	for g.cycle < 5 {
		g.step()
	}
	if at := plane.FiredAt(0); at >= 0 {
		t.Fatalf("fault fired at cycle %d, before its injection cycle", at)
	}
	g.step()
	if at := plane.FiredAt(0); at != 5 {
		t.Fatalf("FiredAt = %d after the first live cycle of an idle router, want 5", at)
	}
}

// TestIdleRouterConsultsEveryPort: inside its own fault window a router's
// phases visit every port it has, whether or not the port has work, so a
// permanent fault on any per-port signal of an idle router fires on its
// first live cycle — the credit-return vector BW takes, the crossbar column
// ST drives, the request and grant vectors of all four arbitration rounds.
// Outside the window a fast sweep visits only the ports with work; the
// reference engine runs the same code inside it, so only this test, and the
// report fixtures, see a window that lets a phase skip a port.
func TestIdleRouterConsultsEveryPort(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	for _, k := range []fault.Kind{fault.CreditSig, fault.XbarSel, fault.SA1Req, fault.SA1Gnt, fault.SA2Req, fault.SA2Gnt, fault.VA1Req, fault.VA1Gnt, fault.VA2Req, fault.VA2Gnt} {
		for p := 0; p < P; p++ {
			site := fault.Site{Router: 4, Kind: k, Port: p, VC: -1, Width: 1}
			plane := fault.NewPlane(fault.Fault{Site: site, Bit: 0, Cycle: 5, Type: fault.Permanent})
			g := &rig{t: t, r: New(4, &cfg, plane)}
			for g.cycle <= 5 {
				g.step()
			}
			if at := plane.FiredAt(0); at != 5 {
				t.Errorf("%v at port %d of an idle router: FiredAt = %d, want its onset 5", k, p, at)
			}
		}
	}
}

// TestBackpressure: with zero downstream credits the flit must wait.
func TestBackpressure(t *testing.T) {
	g := newRig(t, func(c *Config) { c.BufDepth = 1; c.LenByClass = []int{1} })
	dest := g.r.Config().Mesh.NodeAt(2, 1)

	// First single-flit packet consumes the lone credit of East VC 0.
	a := g.packet(1, dest, 1)[0]
	a.VC = 0
	g.r.StageArrival(topology.Local, a)
	sent := 0
	for c := 0; c < 8; c++ {
		sent += len(g.step())
	}
	if sent != 1 {
		t.Fatalf("first packet did not depart (sent=%d)", sent)
	}

	// Second packet on another input VC targets the same output; with
	// depth-1 buffers the downstream VC0 has no credits and VC1..3 are
	// free, so it will take VC1. Fill all four VCs' credits first by
	// sending four packets without returning credits.
	for i := 0; i < 4; i++ {
		f := g.packet(uint64(10+i), dest, 1)[0]
		f.VC = i % g.r.Config().VCs
		g.r.StageArrival(topology.Local, f)
		for c := 0; c < 8; c++ {
			sent += len(g.step())
		}
	}
	if sent < 4 {
		t.Fatalf("setup packets stuck: sent=%d", sent)
	}
	// Now every East VC is occupied (tail sent but credits not
	// returned). A further packet must stall in VA.
	f := g.packet(99, dest, 1)[0]
	f.VC = 0
	g.r.StageArrival(topology.Local, f)
	before := sent
	for c := 0; c < 10; c++ {
		sent += len(g.step())
	}
	if sent != before {
		t.Fatal("packet departed despite zero credits everywhere")
	}
	// Return one credit for VC 2: the packet must now flow.
	g.r.StageCredit(topology.East, 2)
	for c := 0; c < 10; c++ {
		sent += len(g.step())
	}
	if sent != before+1 {
		t.Fatalf("packet did not resume after credit return (sent=%d, want %d)", sent, before+1)
	}
}

// TestAtomicVCRejectsSecondPacket: with atomic buffers, a new header
// cannot be allocated into a still-occupied downstream VC, enforced by
// the free/tailSent/credits recycling protocol.
func TestAtomicOutputVCRecycling(t *testing.T) {
	g := newRig(t, nil)
	cfg := g.r.Config()
	dest := cfg.Mesh.NodeAt(2, 1)
	// Send packet A (5 flits) fully; don't return credits.
	fl := g.packet(1, dest, 5)
	for i := range fl {
		fl[i].VC = 0
		g.r.StageArrival(topology.Local, fl[i])
		g.step()
	}
	for c := 0; c < 10; c++ {
		g.step()
	}
	// Packet B arrives on input VC 1 → must get a different output VC.
	fl2 := g.packet(2, dest, 5)
	var bOut = -1
	for i := range fl2 {
		fl2[i].VC = 1
		g.r.StageArrival(topology.Local, fl2[i])
		g.step()
		for _, a := range g.r.Signals().VAAssigns {
			bOut = a.OutVC
		}
	}
	for c := 0; c < 10 && bOut < 0; c++ {
		g.step()
		for _, a := range g.r.Signals().VAAssigns {
			bOut = a.OutVC
		}
	}
	if bOut == 0 {
		t.Fatal("second packet allocated into the occupied output VC 0")
	}
	if bOut < 0 {
		t.Fatal("second packet never got an output VC")
	}
}

// TestLocalDelivery: a packet destined to the router's own node leaves
// through the Local port.
func TestLocalDelivery(t *testing.T) {
	g := newRig(t, nil)
	fl := g.packet(1, 4, 1) // router 4 is our own node
	fl[0].VC = 2
	g.r.StageArrival(topology.West, fl[0])
	var dep []Departure
	for c := 0; c < 8 && len(dep) == 0; c++ {
		dep = append(dep, g.step()...)
	}
	if len(dep) != 1 || dep[0].OutPort != int(topology.Local) {
		t.Fatalf("local delivery failed: %v", dep)
	}
}

// TestMissingPortPanicsOnDoubleStage: protocol violation by the caller.
func TestDoubleStagePanics(t *testing.T) {
	g := newRig(t, nil)
	f := g.packet(1, 4, 1)[0]
	g.r.StageArrival(topology.North, f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.r.StageArrival(topology.North, f.Clone())
}

// TestEdgeRouterHasNoMissingPorts: a corner router only exposes the
// ports its position allows.
func TestCornerRouterPorts(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	r := New(0, &cfg, nil) // bottom-left corner
	if r.HasPort(topology.South) || r.HasPort(topology.West) {
		t.Fatal("corner router grew impossible ports")
	}
	if !r.HasPort(topology.North) || !r.HasPort(topology.East) || !r.HasPort(topology.Local) {
		t.Fatal("corner router missing real ports")
	}
}

// TestConfigValidation exercises Config.Validate.
func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh(2, 2)
	bad := []func(*Config){
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = MaxVCs + 1 },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.Classes = 0 },
		func(c *Config) { c.Classes = 3 }, // 4 VCs don't split into 3
		func(c *Config) { c.LenByClass = nil },
		func(c *Config) { c.LenByClass = []int{0} },
		func(c *Config) { c.Alg = nil },
	}
	for i, mut := range bad {
		c := Default(m)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := Default(m)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestClassPartitioning pins the VC/class mapping.
func TestClassPartitioning(t *testing.T) {
	c := Default(topology.NewMesh(2, 2))
	c.Classes = 2
	c.LenByClass = []int{1, 5}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ClassOfVC(0) != 0 || c.ClassOfVC(1) != 0 || c.ClassOfVC(2) != 1 || c.ClassOfVC(3) != 1 {
		t.Fatal("ClassOfVC broken")
	}
	lo, hi := c.VCRange(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("VCRange(1) = [%d,%d)", lo, hi)
	}
	if c.PacketLen(0) != 1 || c.PacketLen(1) != 5 || c.PacketLen(9) != 1 {
		t.Fatal("PacketLen broken")
	}
}

// TestVCStateStrings pins state rendering and validity.
func TestVCStateStrings(t *testing.T) {
	for s, want := range map[VCState]string{
		VCIdle: "Idle", VCRouting: "RC", VCWaitingVA: "VA", VCActive: "Active",
	} {
		if s.String() != want || !s.Valid() {
			t.Errorf("state %d: %q valid=%v", int(s), s.String(), s.Valid())
		}
	}
	if VCState(5).Valid() || VCState(7).Valid() {
		t.Error("invalid encodings accepted")
	}
}
