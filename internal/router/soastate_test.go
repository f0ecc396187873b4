package router

import (
	"encoding/json"
	"reflect"
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/fault"
	"nocalert/internal/routing"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// busyRouter drives the center router of a 3×3 mesh with a few packets
// across distinct input ports and returns it mid-flight at the given
// cycle boundary.
func busyRouter(t *testing.T, cycles int64) (*Router, int64) {
	t.Helper()
	g := newRig(t, nil)
	dest := g.r.Config().Mesh.NodeAt(2, 1)
	for i, dir := range []topology.Direction{topology.Local, topology.West, topology.North} {
		fl := g.packet(uint64(i+1), dest, 4)
		fl[0].VC = i
		g.r.StageArrival(dir, fl[0])
	}
	for c := int64(0); c < cycles; c++ {
		g.step()
	}
	return g.r, g.cycle
}

// drainLockstep steps both routers with no further input, comparing
// state folds at every boundary; they must stay identical to the end.
func drainLockstep(t *testing.T, a, b *Router, from int64, n int64) {
	t.Helper()
	for c := from; c < from+n; c++ {
		a.BeginCycle(c)
		a.Evaluate(c)
		b.BeginCycle(c)
		b.Evaluate(c)
		if af, bf := a.FoldState(statehash.Seed), b.FoldState(statehash.Seed); af != bf {
			t.Fatalf("cycle %d: folds diverged (%#x vs %#x)", c, af, bf)
		}
	}
}

// TestCloneFoldIdentity pins the clone/fold contract at router
// granularity: a mid-flight router and its clone agree on FoldState,
// keep agreeing while both drain, and the clone's storage does not
// alias the original's.
func TestCloneFoldIdentity(t *testing.T) {
	r, cyc := busyRouter(t, 3)
	c := r.Clone(nil)
	if c.ID() != r.ID() {
		t.Fatalf("clone id %d", c.ID())
	}
	if rf, cf := r.FoldState(statehash.Seed), c.FoldState(statehash.Seed); rf != cf {
		t.Fatalf("clone fold differs before any step (%#x vs %#x)", rf, cf)
	}
	drainLockstep(t, r, c, cyc, 20)
	// Mutating the clone must not reach back into the original (whose
	// registers are looked at, not its fold cache).
	before := r.FoldState(statehash.Seed)
	c.st.Credits[0] += 3
	c.st.VCState[1] ^= 1
	if rebuiltFold(r) != before {
		t.Fatal("clone aliases the original's register file")
	}
}

// TestCloneIntoReuse: CloneInto into a previous product reuses its
// storage and still reproduces the source exactly; a NewCloneTarget
// shell bound to an external state window works the same way.
func TestCloneIntoReuse(t *testing.T) {
	r, cyc := busyRouter(t, 2)
	dst := r.CloneInto(nil, nil, nil)
	// Re-fork from a later boundary into the same target.
	for c := cyc; c < cyc+2; c++ {
		r.BeginCycle(c)
		r.Evaluate(c)
	}
	cyc += 2
	dst = r.CloneInto(dst, nil, nil)
	if rf, df := r.FoldState(statehash.Seed), dst.FoldState(statehash.Seed); rf != df {
		t.Fatalf("re-fork fold differs (%#x vs %#x)", rf, df)
	}
	drainLockstep(t, r, dst, cyc, 20)
}

// TestInertSkipIsNoOp: a drained router reports Inert, stepping it
// anyway changes nothing (the skip's soundness), and any staged input
// — an arrival or a returning credit — clears the condition.
func TestInertSkipIsNoOp(t *testing.T) {
	g := newRig(t, nil)
	if !g.r.Inert() {
		t.Fatal("fresh router not inert")
	}
	dest := g.r.Config().Mesh.NodeAt(2, 1)
	fl := g.packet(1, dest, 2)
	fl[0].VC = 0
	g.r.StageArrival(topology.Local, fl[0])
	if g.r.Inert() {
		t.Fatal("router inert with a staged arrival")
	}
	g.step()
	fl[1].VC = 0
	g.r.StageArrival(topology.Local, fl[1])
	for i := 0; i < 30 && !g.r.Inert(); i++ {
		g.step()
	}
	if !g.r.Inert() {
		t.Fatal("router never drained to inert")
	}
	before := g.r.FoldState(statehash.Seed)
	g.step()
	g.step()
	if rebuiltFold(g.r) != before {
		t.Fatal("stepping an inert router changed its state")
	}
	g.r.StageCredit(topology.East, 1)
	if g.r.Inert() {
		t.Fatal("router inert with a staged credit")
	}
}

// TestReferenceSweepIdentity: the reference engine — every phase visits
// every port and VC the router has — and the fast one — the ports and VCs
// with work — hold the same registers and show the same signal record,
// field for field and flit for flit, and the same credits, cycle by cycle
// on the same input stream: packets on every port at once, on every router
// variant, and through transient upsets that leave the fast router state no
// healthy cycle writes once its fault window has closed. At every boundary
// the fast router's work masks are the functions of its registers they
// stand for.
func TestReferenceSweepIdentity(t *testing.T) {
	at := func(cycle int64, kind fault.Kind, port, vc, bit int) fault.Fault {
		return fault.Fault{Site: fault.Site{Router: 4, Kind: kind, Port: port, VC: vc, Width: 3}, Bit: bit, Cycle: cycle, Type: fault.Transient}
	}
	local, east, west := int(topology.Local), int(topology.East), int(topology.West)
	for _, tc := range []struct {
		name   string
		mut    func(*Config)
		length int
		faults []fault.Fault
	}{
		{name: "xy", length: 4},
		{name: "speculative", length: 4, mut: func(c *Config) { c.Speculative = true }},
		{name: "non-atomic", length: 2, mut: func(c *Config) { c.AtomicVC, c.LenByClass = false, []int{2} }},
		{name: "2-vc", length: 4, mut: func(c *Config) { c.VCs = 2 }},
		{name: "west-first", length: 4, mut: func(c *Config) { c.Alg = routing.WestFirst{} }},
		{name: "upsets", length: 4, faults: []fault.Fault{
			at(12, fault.VCStateReg, local, 1, 0), at(16, fault.VCOutVCReg, local, 1, 2),
			at(40, fault.VCRouteReg, east, 3, 0), at(43, fault.VCStateReg, east, 3, 1),
			at(50, fault.SA2Gnt, west, -1, 2), at(51, fault.XbarSel, east, -1, 1), at(52, fault.CreditSig, west, -1, 0),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, fast := newRig(t, tc.mut), newRig(t, tc.mut)
			ref.r.SetReferenceSweep(true)
			if len(tc.faults) > 0 {
				ref.r.SetPlane(fault.NewPlane(tc.faults...))
				fast.r.SetPlane(fault.NewPlane(tc.faults...))
			}
			trs := [2]*traffic{newTraffic(ref), newTraffic(fast)}
			departures := 0
			for c := int64(0); c < 150; c++ {
				for _, tr := range trs {
					tr.backToBack = !tr.g.r.cfg.AtomicVC
					tr.cycle(tc.length)
				}
				requireSignalsEqual(t, c, fast.r.Signals(), ref.r.Signals())
				if a, b := fast.r.Credits(), ref.r.Credits(); !reflect.DeepEqual(a, b) {
					t.Fatalf("cycle %d: credits %v, the reference engine's %v", c, a, b)
				}
				if af, bf := fast.r.FoldState(statehash.Seed), ref.r.FoldState(statehash.Seed); af != bf {
					t.Fatalf("cycle %d: engine folds diverged (%#x vs %#x)", c, af, bf)
				}
				requireWorkMasks(t, c, fast.r)
				departures += len(fast.r.Signals().Departures)
			}
			if departures < 100 {
				t.Fatalf("%d departures in 150 cycles: the ports were not all busy", departures)
			}
			for i := range tc.faults {
				if a, b := fast.r.plane.FiredAt(i), ref.r.plane.FiredAt(i); a != b || a < 0 {
					t.Errorf("fault %v fired at cycle %d on the fast engine, %d on the reference one", &tc.faults[i], a, b)
				}
			}
		})
	}
}

// requireSignalsEqual holds a signal record to another, field by field, the
// flits by value.
func requireSignalsEqual(t *testing.T, cycle int64, got, want *Signals) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Fatalf("cycle %d: Signals.%s is\n%s\nthe reference engine's\n%s", cycle, gv.Type().Field(i).Name, gj, wj)
		}
	}
}

// requireWorkMasks holds the masks the phases visit on a fast sweep — the
// staged and latched ports of BW and ST, the non-idle, occupied, routing and
// waiting-VA VCs of SA, VA and RC, the ports that hold something — to the
// registers they stand for, and the activity masks the signal record keeps
// for the checkers' sweeps to the record's fields.
func requireWorkMasks(t *testing.T, cycle int64, r *Router) {
	t.Helper()
	rec := r.sig
	rec.RecomputeMasks()
	kept := [...]bitvec.Vec{r.sig.Granted, r.sig.Arbiters, r.sig.RCPorts, r.sig.XbarCols, r.sig.ReadPorts}
	if want := [...]bitvec.Vec{rec.Granted, rec.Arbiters, rec.RCPorts, rec.XbarCols, rec.ReadPorts}; kept != want || r.sig.Pre.Active != rec.Pre.Active {
		t.Fatalf("cycle %d: kept masks (granted, arbiters, RC, columns, reads) %v, active %v; the record says %v, %v",
			cycle, kept, r.sig.Pre.Active, want, rec.Pre.Active)
	}
	var staged, rows, cols bitvec.Vec
	for p := 0; p < P; p++ {
		if r.arriving[p] != nil || r.st.CreditIn[p] != 0 {
			staged = staged.Set(p)
		}
		if r.st.StFlags[p] != 0 {
			rows = rows.Set(p)
		}
		if r.st.StCol[p] != 0 {
			cols = cols.Set(p)
		}
	}
	if staged != r.staged || rows != r.latchedRows || cols != r.latchedCols {
		t.Fatalf("boundary %d: staged/latched masks %s %s %s, the registers say %s %s %s",
			cycle+1, r.staged, r.latchedRows, r.latchedCols, staged, rows, cols)
	}
	for p := range r.in {
		var nonIdle, occupied, routing, waitVA uint32
		for v := range r.in[p].vcs {
			bit := uint32(1) << uint(v)
			switch VCState(r.st.VCState[r.iv(p, v)]) {
			case VCIdle:
			case VCRouting:
				nonIdle, routing = nonIdle|bit, routing|bit
			case VCWaitingVA:
				nonIdle, waitVA = nonIdle|bit, waitVA|bit
			default:
				nonIdle |= bit
			}
			if !r.in[p].vcs[v].empty() {
				occupied |= bit
			}
		}
		if got, want := [4]uint32{r.st.NonIdle[p], r.st.Occupied[p], r.routing[p], r.waitVA[p]}, [4]uint32{nonIdle, occupied, routing, waitVA}; got != want {
			t.Fatalf("boundary %d port %d: non-idle/occupied/routing/waiting-VA masks %04b, the registers say %04b", cycle+1, p, got, want)
		}
		if r.held.Get(p) != (nonIdle|occupied != 0) {
			t.Fatalf("boundary %d port %d: held %t, the registers say %t", cycle+1, p, r.held.Get(p), nonIdle|occupied != 0)
		}
	}
}

// TestUnobservedCyclesForceFullFill: cycles begun unobserved take no
// snapshot on the fast sweep, and the first cycle begun observed again
// must show every entry as the reference sweep's full fill has it — the
// VCs included that were torn down, free and empty since, while nobody
// looked, which a sparse fill finds neither occupied nor written. The two
// routers see the same input stream; the fast one is observed for three
// cycles (so that its snapshot has been filled once and preFull is down),
// unobserved while the packets drain, and observed from there on.
func TestUnobservedCyclesForceFullFill(t *testing.T) {
	mk := func(ref bool) *rig {
		g := newRig(t, nil)
		g.r.SetReferenceSweep(ref)
		dest := g.r.Config().Mesh.NodeAt(2, 1)
		for i, dir := range []topology.Direction{topology.Local, topology.West, topology.South} {
			fl := g.packet(uint64(i+1), dest, 1)
			fl[0].VC = i
			g.r.StageArrival(dir, fl[0])
		}
		return g
	}
	ref, fast := mk(true), mk(false)
	for c := int64(0); c < 40; c++ {
		ref.step()
		if c < 3 || c >= 20 {
			fast.step()
		} else {
			fast.r.BeginUnobserved(c)
			fast.r.Evaluate(c)
			fast.cycle++
			continue
		}
		got, want := &fast.r.Signals().Pre, &ref.r.Signals().Pre
		if got.Active != want.Active {
			t.Fatalf("cycle %d: Pre.Active %v, the full fill has %v", c, got.Active, want.Active)
		}
		for p := range want.In {
			for v := range want.In[p] {
				if got.In[p][v] != want.In[p][v] {
					t.Fatalf("cycle %d port %d vc %d: Pre.In %+v, the full fill has %+v", c, p, v, got.In[p][v], want.In[p][v])
				}
			}
		}
	}
	if !fast.r.Inert() {
		t.Fatal("the packets did not drain while the router went unobserved")
	}
	if af, bf := ref.r.FoldState(statehash.Seed), fast.r.FoldState(statehash.Seed); af != bf {
		t.Fatalf("engine folds diverged (%#x vs %#x)", af, bf)
	}
}

// TestRegisterUpsetsApply: transient register flips through every
// register kind must land in the SoA arrays (the fold moves) and keep
// the router steppable; wire faults exercise the faulted read paths.
func TestRegisterUpsetsApply(t *testing.T) {
	regs := []fault.Kind{fault.VCStateReg, fault.VCRouteReg, fault.VCOutVCReg, fault.CreditCountReg}
	for _, k := range regs {
		t.Run(k.String(), func(t *testing.T) {
			r, cyc := busyRouter(t, 2)
			before := r.FoldState(statehash.Seed)
			w := 3
			if k == fault.CreditCountReg {
				w = fault.BitsFor(r.Config().BufDepth)
			}
			p := fault.NewPlane(fault.Fault{
				Site: fault.Site{Router: r.ID(), Kind: k, Port: int(topology.Local), VC: 0, Width: w},
				Bit:  0, Cycle: cyc, Type: fault.Transient,
			})
			r.SetPlane(p)
			r.BeginCycle(cyc)
			r.Evaluate(cyc)
			if r.FoldState(statehash.Seed) == before {
				t.Fatalf("%v upset left the fold unchanged", k)
			}
			for c := cyc + 1; c < cyc+20; c++ {
				r.BeginCycle(c)
				r.Evaluate(c)
			}
		})
	}
	// A permanent wire fault keeps the plane live, forcing every read
	// through the faulted path while the router keeps operating.
	wires := []fault.Kind{fault.RCOutDir, fault.VA1Gnt, fault.SA2Req, fault.CreditSig, fault.BufRead}
	for _, k := range wires {
		t.Run(k.String(), func(t *testing.T) {
			r, cyc := busyRouter(t, 1)
			p := fault.NewPlane(fault.Fault{
				Site: fault.Site{Router: r.ID(), Kind: k, Port: int(topology.East), VC: -1, Width: 3},
				Bit:  0, Cycle: cyc, Type: fault.Permanent,
			})
			r.SetPlane(p)
			for c := cyc; c < cyc+20; c++ {
				r.BeginCycle(c)
				r.Evaluate(c)
			}
		})
	}
}
