package core_test

import (
	"fmt"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// TestUnobservedSnapshotRefills is the contract of the snapshot nobody
// reads (DESIGN.md §3.1): a network that carries ForEVeR alone — the
// campaign's golden mainline — takes no pre-cycle snapshot on the fast
// engine, and the cycle the NoCAlert engine is attached for takes a full
// one. After N unobserved cycles every router's first observed snapshot
// must be, entry for entry — the free VCs' included, which a sparse fill
// would have left as some cycle long past had them — and mask for mask,
// the one the reference engine fills in full every cycle;
// from there the sparse fills must keep it so, and the checkers, which
// read little else, must stay silent on the fault-free mesh.
func TestUnobservedSnapshotRefills(t *testing.T) {
	for _, unobserved := range []int{1, 7, 300} {
		t.Run(fmt.Sprintf("%dcycles", unobserved), func(t *testing.T) {
			cfg := sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.12, Seed: 3}
			fast := sim.MustNew(cfg, nil)
			cfg.DisableSoA = true
			ref := sim.MustNew(cfg, nil)
			for _, n := range []*sim.Network{ref, fast} {
				n.AttachMonitor(forever.NewMonitor(n.RouterConfig(), forever.DefaultOptions()))
				n.Run(int64(unobserved))
			}
			eng := core.NewEngine(fast.RouterConfig(), core.Options{KeepViolations: true, MaxViolations: 5})
			fast.AttachMonitor(eng)
			compared := 0
			for i := 0; i < 200; i++ {
				c := fast.Cycle()
				ref.Step()
				fast.Step()
				for id := 0; id < fast.Mesh().Nodes(); id++ {
					got, want := fast.Router(id).Signals(), ref.Router(id).Signals()
					if got.Cycle != c {
						continue // asleep: not stepped, not shown to the engine
					}
					compared++
					if got.Pre.Active != want.Pre.Active {
						t.Fatalf("observed cycle %d (%d after the engine was attached) router %d: Pre.Active %v, the full fill has %v", c, i, id, got.Pre.Active, want.Pre.Active)
					}
					for p := range want.Pre.In {
						for v := range want.Pre.In[p] {
							if got.Pre.In[p][v] != want.Pre.In[p][v] {
								t.Fatalf("observed cycle %d (%d after the engine was attached) router %d port %d vc %d: Pre.In %+v, the full fill has %+v",
									c, i, id, p, v, got.Pre.In[p][v], want.Pre.In[p][v])
							}
						}
					}
				}
			}
			if compared == 0 {
				t.Fatal("no router was stepped while the engine was attached")
			}
			if eng.Detected() {
				t.Fatalf("fault-free run raised assertions: %v", eng.Violations())
			}
			if a, b := fast.Fingerprint(), ref.Fingerprint(); a != b {
				t.Fatalf("engines diverged (fast %#x, reference %#x)", a, b)
			}
		})
	}
}
