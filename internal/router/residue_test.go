package router_test

import (
	"slices"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/flit"
	"nocalert/internal/forever"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// recorder is a monitor that keeps what a cycle's stepped routers put on
// their outputs — departures and credits — and which winner latches the
// cycle's first arbitration rounds wrote.
type recorder struct {
	sim.BaseMonitor
	out  []output
	wins map[[2]int]bool // {router, bank*P + port}
}

// output is one departure (credit false) or one credit leaving a router.
type output struct {
	router, port, vc, inPort int
	credit, garbage          bool
	flit                     flit.Flit
}

func (m *recorder) RouterCycle(r *router.Router, s *router.Signals) {
	for _, d := range s.Departures {
		m.out = append(m.out, output{router: r.ID(), port: d.OutPort, vc: d.OutVC, inPort: d.InPort, garbage: d.Garbage, flit: *d.Flit})
	}
	for _, c := range r.Credits() {
		m.out = append(m.out, output{router: r.ID(), port: int(c.Port), vc: c.VC, credit: true})
	}
	for p := 0; p < router.P; p++ {
		if !s.VA1[p].Gnt.IsZero() {
			m.wins[[2]int{r.ID(), router.BankVA1*router.P + p}] = true
		}
		if !s.SA1[p].Gnt.IsZero() {
			m.wins[[2]int{r.ID(), router.BankSA1*router.P + p}] = true
		}
	}
}

// watched is one network of the pair: the network and its monitors.
type watched struct {
	n   *sim.Network
	eng *core.Engine
	fv  *forever.Monitor
	rec *recorder
}

func watch(n *sim.Network) *watched {
	w := &watched{n: n, rec: &recorder{wins: map[[2]int]bool{}}}
	w.eng = core.NewEngine(n.RouterConfig(), core.Options{KeepViolations: true})
	w.fv = forever.NewMonitor(n.RouterConfig(), forever.Options{Epoch: 400, HopLatency: 1})
	for _, m := range []sim.Monitor{w.eng, w.fv, w.rec} {
		n.AttachMonitor(m)
	}
	return w
}

// TestResidueIsDead: the residue — the registers router.Router.FoldState
// leaves out and FoldResidue folds — is never read before it is written
// again, by a router whose own fault window is closed and whose live state
// and inputs are a fault-free run's. It does not ask the divergence
// frontier, which retires members on that claim. A warmed 8×8 network has
// every residue register of every router scribbled (ScribbleResidue: every
// VC's read latch, every idle, empty VC's route, output-VC, packet-id and
// arrival registers and write latch, every VA1 winner latch and every SA1
// winner latch with no read enable behind it) and is stepped, fault-free,
// beside an untouched clone, both with the NoCAlert engine, a ForEVeR
// monitor and a recorder attached, for 2000 cycles. Every cycle both must
// put the same departures and credits on their outputs and hold the same
// live fold in every router; at the end they must have ejected the same
// flits, and their engines and monitors must have flagged alike. A
// scribbled register must equal the clean one's once it has been written
// again — a VC's four registers and write latch once the VC has held a
// packet, its read latch once it has gone idle after one, a winner latch
// once its round has granted — and a router whose every scribbled register
// has been is folded alike with its residue.
func TestResidueIsDead(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*router.Config)
	}{
		{"atomic", nil},
		// Invariance 27 reads the write latch of the VC a flit lands in.
		{"non-atomic", func(c *router.Config) { c.AtomicVC = false }},
		{"adaptive", func(c *router.Config) { c.Alg = routing.Adaptive{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := router.Default(topology.NewMesh(8, 8))
			if tc.mut != nil {
				tc.mut(&rc)
			}
			base := sim.MustNew(sim.Config{Router: rc, InjectionRate: 0.25, Seed: 7}, nil)
			base.Run(500)
			clean := watch(base.CloneInto(nil, nil)) // whose log starts empty
			dirty := watch(base)
			logged := len(base.Ejections())

			g := rng.New(11, 3)
			mesh := rc.Mesh
			for id := 0; id < mesh.Nodes(); id++ {
				r := dirty.n.Router(id)
				live := r.FoldState(statehash.Seed)
				router.ScribbleResidue(r, g.Uint64)
				if r.FoldState(statehash.Seed) != live {
					t.Fatalf("router %d: scribbling its residue moved its live fold", id)
				}
				if r.FoldResidue(statehash.Seed) == clean.n.Router(id).FoldResidue(statehash.Seed) {
					t.Fatalf("router %d: scribbling its residue left it as it was", id)
				}
			}

			// Per VC: 0 scribbled, 1 has held a packet since, 2 has gone idle
			// after one. Per port and winner latch: rewritten.
			type vcKey struct{ id, p, v int }
			phase := map[vcKey]int{}
			rewritten := map[int]bool{} // routers folded alike with their residue
			const cycles = 2000
			for c := 0; c < cycles; c++ {
				clean.n.Step()
				dirty.n.Step()
				if !slices.Equal(clean.rec.out, dirty.rec.out) {
					t.Fatalf("cycle %d: the scribbled network put %v on its outputs, the clean one %v", dirty.n.Cycle()-1, dirty.rec.out, clean.rec.out)
				}
				clean.rec.out, dirty.rec.out = clean.rec.out[:0], dirty.rec.out[:0]
				for id := 0; id < mesh.Nodes(); id++ {
					a, b := dirty.n.Router(id), clean.n.Router(id)
					if a.FoldState(statehash.Seed) != b.FoldState(statehash.Seed) {
						t.Fatalf("cycle %d router %d: the live folds parted", dirty.n.Cycle()-1, id)
					}
					all := true
					for p := 0; p < router.P; p++ {
						if !a.HasPort(topology.Direction(p)) {
							continue
						}
						for k, bank := range []int{router.BankVA1, router.BankSA1} {
							if !dirty.rec.wins[[2]int{id, bank*router.P + p}] {
								all = false
							} else if router.WinnerLatches(a, p)[k] != router.WinnerLatches(b, p)[k] {
								t.Fatalf("cycle %d router %d port %d: winner latch %d rewritten to %d, the clean one holds %d", dirty.n.Cycle()-1, id, p, k, router.WinnerLatches(a, p)[k], router.WinnerLatches(b, p)[k])
							}
						}
						for v := 0; v < rc.VCs; v++ {
							key := vcKey{id, p, v}
							ph, idle := phase[key], router.IdleVC(a, p, v)
							if ph == 0 && !idle || ph == 1 && idle {
								ph++
							}
							phase[key] = ph
							got, want := router.VCResidue(a, p, v), router.VCResidue(b, p, v)
							switch ph {
							case 0:
								all = false
								continue
							case 1:
								got.Read, got.HasRead = want.Read, want.HasRead // not yet popped since
								all = false
							}
							if got != want {
								t.Fatalf("cycle %d router %d port %d vc %d: rewritten residue %+v, the clean one %+v", dirty.n.Cycle()-1, id, p, v, got, want)
							}
						}
					}
					if all {
						if a.FoldResidue(statehash.Seed) != b.FoldResidue(statehash.Seed) {
							t.Fatalf("cycle %d router %d: every scribbled register written again, and the residue folds differ", dirty.n.Cycle()-1, id)
						}
						rewritten[id] = true
					}
				}
			}

			if !slices.EqualFunc(dirty.n.Ejections()[logged:], clean.n.Ejections(), func(a, b sim.Ejection) bool {
				return a.Node == b.Node && a.Cycle == b.Cycle && *a.Flit == *b.Flit
			}) {
				t.Fatal("the two networks ejected different flits")
			}
			if !slices.Equal(dirty.eng.Violations(), clean.eng.Violations()) {
				t.Fatalf("the checkers asserted %d times on the scribbled network, %d on the clean one", len(dirty.eng.Violations()), len(clean.eng.Violations()))
			}
			if !slices.Equal(dirty.fv.Detections(), clean.fv.Detections()) {
				t.Fatalf("ForEVeR flagged %v on the scribbled network, %v on the clean one", dirty.fv.Detections(), clean.fv.Detections())
			}
			if got := len(clean.n.Ejections()); got < 10000 {
				t.Fatalf("%d flits ejected in %d cycles: too little traffic to write the residue again", got, cycles)
			}

			// Enough of it was written again for the comparisons to mean
			// something.
			var vcs [3]int
			for _, ph := range phase {
				vcs[ph]++
			}
			wins := len(dirty.rec.wins)
			t.Logf("VCs: %d never held a packet, %d held one, %d went idle after one; %d winner latches rewritten; %d routers written again whole", vcs[0], vcs[1], vcs[2], wins, len(rewritten))
			if vcs[2] < len(phase)/2 || wins < mesh.Nodes() || len(rewritten) == 0 {
				t.Fatalf("only %d VCs of %d went idle again after a packet, %d winner latches and %d routers were written again whole", vcs[2], len(phase), wins, len(rewritten))
			}
		})
	}
}
