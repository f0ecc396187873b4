package core_test

import (
	"fmt"
	"slices"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/fault"
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

// TestQuietCycleContract is the contract of the quiet cycle and the credit
// step (DESIGN.md §3.1, §3.2): a network that carries ForEVeR alone — the
// campaign's golden mainline — writes of a fast-sweep router's record only
// what ForEVeR and the links read, and steps a router with nothing but
// returning credits to absorb by absorbing them. It must be the network
// the NoCAlert engine observes, which takes every cycle whole, in all that
// anybody reads: every cycle, every router's state fold (live state and
// residue) and every ForEVeR detection, and at the end the whole network's
// fingerprint. The armed cases put a fault in a router that is idle when
// it strikes: inside its own fault window a router's cycle is never quiet,
// and the grant its plane conjures out of nothing must reach the
// Allocation Comparator on both networks in the same cycle.
func TestQuietCycleContract(t *testing.T) {
	at := func(kind fault.Kind, port, vc, width, bit int, typ fault.Type) *fault.Fault {
		return &fault.Fault{Site: fault.Site{Router: 5, Kind: kind, Port: port, VC: vc, Width: width}, Bit: bit, Cycle: 400, Type: typ}
	}
	local, east := int(topology.Local), int(topology.East)
	for _, tc := range []struct {
		name  string
		rate  float64
		fault *fault.Fault
	}{
		{"fault-free", 0.12, nil},
		{"fault-free-light", 0.03, nil},
		{"sa1-grant-permanent", 0.03, at(fault.SA1Gnt, local, -1, 4, 0, fault.Permanent)},
		{"credit-counter-permanent", 0.03, at(fault.CreditCountReg, east, 1, 3, 1, fault.Permanent)},
		{"flit-vc-permanent", 0.12, at(fault.FlitVCIn, east, -1, 2, 0, fault.Permanent)},
		{"vc-state-transient", 0.12, at(fault.VCStateReg, local, 2, 3, 0, fault.Transient)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: tc.rate, Seed: 3}
			var nets [2]*sim.Network
			var fvs [2]*forever.Monitor
			for i := range nets {
				var plane *fault.Plane
				if tc.fault != nil {
					plane = fault.NewPlane(*tc.fault)
				}
				nets[i] = sim.MustNew(cfg, plane)
				fvs[i] = forever.NewMonitor(nets[i].RouterConfig(), forever.Options{Epoch: 400})
				nets[i].AttachMonitor(fvs[i])
			}
			quiet, observed := nets[0], nets[1]
			observed.AttachMonitor(core.NewEngine(observed.RouterConfig(), core.Options{}))
			var arrivals [2]int // records' Arrivals: a quiet cycle writes none
			for c := int64(0); c < 1500; c++ {
				quiet.Step()
				observed.Step()
				for id := 0; id < quiet.Mesh().Nodes(); id++ {
					q, o := quiet.Router(id), observed.Router(id)
					for i, r := range [...]*router.Router{q, o} {
						if s := r.Signals(); s.Cycle == c {
							arrivals[i] += len(s.Arrivals)
						}
					}
					if a, b := q.FoldResidue(q.FoldState(0)), o.FoldResidue(o.FoldState(0)); a != b {
						t.Fatalf("cycle %d router %d: the ForEVeR-only network's state folds to %#x, the observed one's to %#x", c, id, a, b)
					}
				}
				if a, b := fvs[0].Detections(), fvs[1].Detections(); !slices.Equal(a, b) {
					t.Fatalf("cycle %d: ForEVeR on the ForEVeR-only network detected at %v, on the observed one at %v", c, a, b)
				}
			}
			if a, b := quiet.Fingerprint(), observed.Fingerprint(); a != b {
				t.Fatalf("networks diverged (ForEVeR-only %#x, observed %#x)", a, b)
			}
			if tc.fault == nil && (arrivals[0] != 0 || arrivals[1] == 0) {
				t.Fatalf("records hold %d arrivals on the ForEVeR-only network, %d on the observed one: the cycles were not quiet", arrivals[0], arrivals[1])
			}
			if tc.fault != nil && tc.fault.Site.Kind == fault.SA1Gnt && len(fvs[0].Detections()) == 0 {
				t.Fatal("the conjured grant reached no Allocation Comparator: the case tests nothing")
			}
		})
	}
}
