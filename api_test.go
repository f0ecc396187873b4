package nocalert_test

import (
	"testing"

	"nocalert"
	"nocalert/internal/golden"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow
// through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	mesh := nocalert.NewMesh(4, 4)
	cfg := nocalert.SimConfig{
		Router:        nocalert.DefaultRouterConfig(mesh),
		InjectionRate: 0.1,
		Seed:          1,
	}
	n, err := nocalert.NewNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := nocalert.NewEngine(n.RouterConfig(), nocalert.EngineOptions{KeepViolations: true})
	n.AttachMonitor(eng)
	n.Run(1500)
	if eng.Detected() {
		t.Fatalf("fault-free assertions: %v", eng.Violations())
	}
	if n.FlitsEjected() == 0 {
		t.Fatal("no traffic")
	}
}

// TestPublicAPIFaultInjection drives the fault plane through the
// facade.
func TestPublicAPIFaultInjection(t *testing.T) {
	mesh := nocalert.NewMesh(4, 4)
	cfg := nocalert.SimConfig{
		Router:        nocalert.DefaultRouterConfig(mesh),
		InjectionRate: 0.15,
		Seed:          2,
	}
	site := nocalert.FaultSite{
		Router: 5,
		Kind:   nocalert.FaultSA1Gnt,
		Port:   int(nocalert.Local),
		VC:     -1,
		Width:  4,
	}
	f := nocalert.Fault{Site: site, Bit: 0, Cycle: 400, Type: nocalert.PermanentFault}
	n := nocalert.MustNewNetwork(cfg, nocalert.NewFaultPlane(f))
	eng := nocalert.NewEngine(n.RouterConfig(), nocalert.EngineOptions{})
	n.AttachMonitor(eng)
	n.Run(1500)
	if !eng.Detected() {
		t.Fatal("permanent arbiter fault not detected")
	}
	if eng.FirstDetection() < 400 {
		t.Fatalf("detection at %d precedes injection", eng.FirstDetection())
	}
}

// TestPublicAPIRegistries exercises the name-based constructors.
func TestPublicAPIRegistries(t *testing.T) {
	if _, err := nocalert.NewRoutingAlgorithm("adaptive"); err != nil {
		t.Fatal(err)
	}
	if _, err := nocalert.NewRoutingAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := nocalert.NewTrafficPattern("transpose"); err != nil {
		t.Fatal(err)
	}
	if _, err := nocalert.NewTrafficPattern("nope"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if nocalert.XYRouting.Name() != "xy" || nocalert.UniformTraffic.Name() != "uniform" {
		t.Fatal("canonical instances misnamed")
	}
}

// TestPublicAPIGoldenFlow runs the golden-reference comparison on a
// network built through the facade.
func TestPublicAPIGoldenFlow(t *testing.T) {
	mesh := nocalert.NewMesh(4, 4)
	cfg := nocalert.SimConfig{Router: nocalert.DefaultRouterConfig(mesh), InjectionRate: 0.1, Seed: 3}
	n := nocalert.MustNewNetwork(cfg, nil)
	n.Run(800)
	n.Drain(5000)
	g := golden.FromEjections(n.Ejections(), 0)
	v := golden.Compare(g, g, true)
	if !v.OK() {
		t.Fatalf("self-comparison judged %s", v.String())
	}
}

// TestPublicAPIHWModel sanity-checks the hardware-model facade.
func TestPublicAPIHWModel(t *testing.T) {
	o := nocalert.AreaOverhead(nocalert.HWDefault(4))
	if o.NoCAlertPct <= 0 || o.DMRPct <= o.NoCAlertPct {
		t.Fatalf("implausible overheads: %+v", o)
	}
	if _, _, pw := nocalert.PowerOverhead(nocalert.HWDefault(4)); pw <= 0 {
		t.Fatal("power overhead must be positive")
	}
}

// TestParseMesh covers the "WxH" specification parser.
func TestParseMesh(t *testing.T) {
	m, err := nocalert.ParseMesh("8x8")
	if err != nil || m.W != 8 || m.H != 8 {
		t.Fatalf("ParseMesh(8x8) = %v, %v", m, err)
	}
	if m, err := nocalert.ParseMesh(" 4X2 "); err != nil || m.W != 4 || m.H != 2 {
		t.Fatalf("ParseMesh with case/space = %v, %v", m, err)
	}
	for _, bad := range []string{"", "8", "8x", "x8", "0x4", "ax b"} {
		if _, err := nocalert.ParseMesh(bad); err == nil {
			t.Errorf("ParseMesh(%q) accepted", bad)
		}
	}
}

// TestCheckerConstantsExported pins facade constants against the core
// definitions.
func TestCheckerConstantsExported(t *testing.T) {
	if nocalert.NumCheckers != 32 {
		t.Fatalf("NumCheckers = %d", nocalert.NumCheckers)
	}
	if nocalert.North.String() != "N" || nocalert.Local.String() != "L" {
		t.Fatal("direction constants broken")
	}
}
