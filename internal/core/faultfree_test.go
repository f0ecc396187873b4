package core_test

import (
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// TestFaultFreeSilence is the linchpin property of the reproduction:
// in a fault-free network no checker may ever fire, at any load, under
// any pattern or configuration variation. A violation here would be a
// false alarm the hardware checkers, by construction, cannot raise.
func TestFaultFreeSilence(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*router.Config)
		rate  float64
		pat   traffic.Pattern
		cycle int64
	}{
		{name: "default-low", rate: 0.05, cycle: 3000},
		{name: "default-high", rate: 0.35, cycle: 3000},
		{name: "saturated", rate: 0.8, cycle: 1500},
		{name: "transpose", rate: 0.2, pat: traffic.Transpose{}, cycle: 2500},
		{name: "hotspot", rate: 0.15, pat: traffic.NewHotspot(nil, 0.4), cycle: 2500},
		{name: "1vc", mut: func(c *router.Config) { c.VCs = 1 }, rate: 0.1, cycle: 2500},
		{name: "2vc", mut: func(c *router.Config) { c.VCs = 2 }, rate: 0.15, cycle: 2500},
		{name: "8vc", mut: func(c *router.Config) { c.VCs = 8 }, rate: 0.25, cycle: 2000},
		{name: "deep-buffers", mut: func(c *router.Config) { c.BufDepth = 8 }, rate: 0.2, cycle: 2000},
		{name: "two-classes", mut: func(c *router.Config) {
			c.Classes = 2
			c.LenByClass = []int{1, 5}
		}, rate: 0.2, cycle: 2500},
		{name: "single-flit", mut: func(c *router.Config) { c.LenByClass = []int{1} }, rate: 0.2, cycle: 2500},
		{name: "westfirst", mut: func(c *router.Config) { c.Alg = routing.WestFirst{} }, rate: 0.15, cycle: 2500},
		{name: "adaptive", mut: func(c *router.Config) { c.Alg = routing.Adaptive{} }, rate: 0.15, cycle: 2500},
		{name: "nonatomic", mut: func(c *router.Config) { c.AtomicVC = false }, rate: 0.2, cycle: 2500},
		{name: "speculative", mut: func(c *router.Config) { c.Speculative = true }, rate: 0.2, cycle: 2500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := router.Default(topology.NewMesh(4, 4))
			if tc.mut != nil {
				tc.mut(&rc)
			}
			cfg := sim.Config{Router: rc, Pattern: tc.pat, InjectionRate: tc.rate, Seed: 99}
			n := sim.MustNew(cfg, nil)
			eng := core.NewEngine(n.RouterConfig(), core.Options{KeepViolations: true, MaxViolations: 5})
			n.AttachMonitor(eng)
			n.Run(tc.cycle)
			n.Drain(10000)
			if eng.Detected() {
				t.Fatalf("fault-free run raised assertions: %v", eng.Violations())
			}
			if n.FlitsEjected() == 0 {
				t.Fatal("no traffic delivered; test exercised nothing")
			}
		})
	}
}

// BenchmarkNetworkStepWithCheckers measures one cycle of the paper-scale
// 8×8 mesh at the evaluation load with the full engine attached — the
// simulation-side analogue of the paper's "checkers are transparent to
// operation" claim (sim's BenchmarkStepOnly8x8 times a step with no
// monitor).
func BenchmarkNetworkStepWithCheckers(b *testing.B) {
	cfg := sim.Config{Router: router.Default(topology.NewMesh(8, 8)), InjectionRate: 0.1, Seed: 1}
	n := sim.MustNew(cfg, nil)
	n.AttachMonitor(core.NewEngine(n.RouterConfig(), core.Options{}))
	n.Run(2000)
	for b.Loop() {
		n.Step()
	}
}
