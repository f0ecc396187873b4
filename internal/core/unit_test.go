package core

import (
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// sig builds a quiescent, well-formed signal record for router id of a
// 4×4 default-config network, ready to have one anomaly injected.
func sig(cfg *router.Config, id int, cycle int64) *router.Signals {
	s := &router.Signals{Router: id, Cycle: cycle}
	for d := topology.North; d < topology.NumPorts; d++ {
		if cfg.Mesh.HasPort(id, d) {
			s.Ports = s.Ports.Set(int(d))
		}
	}
	for p := 0; p < router.P; p++ {
		s.Pre.In[p] = make([]router.PreVC, cfg.VCs)
		for v := 0; v < cfg.VCs; v++ {
			s.Pre.In[p][v] = router.PreVC{State: router.VCIdle, Route: 7}
		}
	}
	return s
}

// run pushes one signal record through a fresh engine and returns the
// distinct checkers that fired.
func run(t *testing.T, cfg *router.Config, s *router.Signals) map[CheckerID]bool {
	t.Helper()
	// Hand-built records don't maintain the activity masks inline the way
	// the router does; rebuild them so the sweeps over the masks see the
	// injected anomaly.
	s.RecomputeMasks()
	e := NewEngine(cfg, Options{KeepViolations: true})
	e.RouterCycle(nil, s)
	out := map[CheckerID]bool{}
	for _, id := range e.FiredCheckers() {
		out[id] = true
	}
	return out
}

// expectOnly asserts exactly the given checkers fired.
func expectOnly(t *testing.T, got map[CheckerID]bool, want ...CheckerID) {
	t.Helper()
	wantSet := map[CheckerID]bool{}
	for _, id := range want {
		wantSet[id] = true
	}
	for id := range got {
		if !wantSet[id] {
			t.Errorf("unexpected checker fired: %v", id)
		}
	}
	for id := range wantSet {
		if !got[id] {
			t.Errorf("checker %v did not fire", id)
		}
	}
}

func unitCfg() *router.Config {
	c := router.Default(topology.NewMesh(4, 4))
	return &c
}

func TestQuiescentSignalsSilent(t *testing.T) {
	cfg := unitCfg()
	expectOnly(t, run(t, cfg, sig(cfg, 5, 100)))
}

func TestUnitChecker1IllegalTurn(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100) // router 5 = (1,1)
	// Packet entered from the North port (moving south) turning East:
	// the paper's Figure 2(a) violation. Destination is set so the hop
	// is minimal (east of the router), isolating the turn rule.
	s.Pre.In[int(topology.North)][0] = router.PreVC{State: router.VCRouting, HasHead: true, HeadKind: flit.Head}
	s.RCExecs = append(s.RCExecs, router.RCExec{
		Port: int(topology.North), VC: 0, HasHead: true, HeadKind: flit.Head,
		DestX: 3, DestY: 1, TrueDestX: 3, TrueDestY: 1, OutDir: int(topology.East),
	})
	s.RCDone[int(topology.North)] = bitvec.New(0)
	expectOnly(t, run(t, cfg, s), IllegalTurn)
}

func TestUnitChecker2InvalidDirection(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.RCExecs = append(s.RCExecs, router.RCExec{
		Port: int(topology.Local), VC: 0, HasHead: true, HeadKind: flit.Head,
		DestX: 3, DestY: 1, TrueDestX: 3, TrueDestY: 1, OutDir: 6, // code 6: impossible
	})
	s.RCDone[int(topology.Local)] = bitvec.New(0)
	expectOnly(t, run(t, cfg, s), InvalidRCOutput)
}

func TestUnitChecker2MissingPort(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 0, 100) // corner router: no South or West port
	s.RCExecs = append(s.RCExecs, router.RCExec{
		Port: int(topology.Local), VC: 0, HasHead: true, HeadKind: flit.Head,
		DestX: 0, DestY: 0, TrueDestX: 0, TrueDestY: 0, OutDir: int(topology.South),
	})
	s.RCDone[int(topology.Local)] = bitvec.New(0)
	// South is both an impossible port here and non-minimal/illegal by
	// coordinates; the range check must fire.
	got := run(t, cfg, s)
	if !got[InvalidRCOutput] {
		t.Error("checker 2 did not flag a direction to a missing port")
	}
}

func TestUnitChecker3NonMinimal(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	// Injected packet headed to (3,1) routed West: legal turn, wrong
	// way.
	s.RCExecs = append(s.RCExecs, router.RCExec{
		Port: int(topology.Local), VC: 0, HasHead: true, HeadKind: flit.Head,
		DestX: 3, DestY: 1, TrueDestX: 3, TrueDestY: 1, OutDir: int(topology.West),
	})
	s.RCDone[int(topology.Local)] = bitvec.New(0)
	expectOnly(t, run(t, cfg, s), NonMinimalRoute)
}

func TestUnitCheckers4to6Arbiter(t *testing.T) {
	cfg := unitCfg()

	s := sig(cfg, 5, 100)
	s.SA1[0] = router.ReqGnt{Req: 0, Gnt: bitvec.New(1)} // grant w/o request
	got := run(t, cfg, s)
	if !got[GrantWithoutRequest] {
		t.Error("checker 4 silent")
	}

	s = sig(cfg, 5, 100)
	s.VA2[2] = router.ReqGnt{Req: bitvec.New(0, 3), Gnt: 0} // grant to nobody
	got = run(t, cfg, s)
	if !got[GrantToNobody] {
		t.Error("checker 5 silent")
	}

	s = sig(cfg, 5, 100)
	s.SA2[1] = router.ReqGnt{Req: bitvec.New(0, 3), Gnt: bitvec.New(0, 3)} // multi-hot
	got = run(t, cfg, s)
	if !got[GrantNotOneHot] {
		t.Error("checker 6 silent")
	}
}

func TestUnitChecker7OccupiedVC(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[0][1] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 2, BufLen: 1}
	s.VA1[0] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	s.VA2[2] = router.ReqGnt{Req: bitvec.New(0), Gnt: bitvec.New(0)}
	s.VAAssigns = append(s.VAAssigns, router.VAAssign{
		OutPort: 2, InPort: 0, InVC: 1, OutVC: 3,
		TargetFree: false, TargetCredits: cfg.BufDepth, // occupied!
	})
	got := run(t, cfg, s)
	if !got[GrantToOccupiedOrFull] {
		t.Error("checker 7 silent on occupied VC")
	}
}

func TestUnitChecker8DoubleAssignment(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[0][1] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 2, BufLen: 1}
	s.Pre.In[3][0] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 2, BufLen: 1}
	s.VA1[0] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	s.VA1[3] = router.ReqGnt{Req: bitvec.New(0), Gnt: bitvec.New(0)}
	s.VA2[2] = router.ReqGnt{Req: bitvec.New(0, 3), Gnt: bitvec.New(0, 3)}
	// Two input VCs granted the same output VC in one cycle.
	s.VAAssigns = append(s.VAAssigns,
		router.VAAssign{OutPort: 2, InPort: 0, InVC: 1, OutVC: 0, TargetFree: true, TargetCredits: cfg.BufDepth},
		router.VAAssign{OutPort: 2, InPort: 3, InVC: 0, OutVC: 0, TargetFree: false, TargetCredits: cfg.BufDepth},
	)
	got := run(t, cfg, s)
	if !got[OneToOneVCAssignment] {
		t.Error("checker 8 silent on double assignment")
	}
}

func TestUnitChecker9And13SA(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[1][2] = router.PreVC{State: router.VCActive, Route: 2, OutVC: 0, BufLen: 1}
	s.SA1[1] = router.ReqGnt{Req: bitvec.New(2), Gnt: bitvec.New(2)}
	s.SA2[2] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	s.SA2[0] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	// Port 1 latched toward two outputs; output 0 disagrees with RC.
	s.SALatches = append(s.SALatches,
		router.SALatch{OutPort: 2, InPort: 1, InVC: 2, OutVC: 0, CreditsBefore: 5},
		router.SALatch{OutPort: 0, InPort: 1, InVC: 2, OutVC: 0, CreditsBefore: 5},
	)
	got := run(t, cfg, s)
	if !got[OneToOnePortAssignment] {
		t.Error("checker 9 silent")
	}
	if !got[SAAgreesWithRC] {
		t.Error("checker 11 silent on route disagreement")
	}
}

func TestUnitCheckers14to16Xbar(t *testing.T) {
	cfg := unitCfg()

	s := sig(cfg, 5, 100)
	s.XbarCol[2] = bitvec.New(0, 1) // two rows on one column
	s.XbarRows = bitvec.New(0, 1)
	s.XbarIn, s.XbarOut = 2, 2
	got := run(t, cfg, s)
	if !got[XbarColumnOneHot] {
		t.Error("checker 14 silent")
	}

	s = sig(cfg, 5, 100)
	s.XbarCol[2] = bitvec.New(0)
	s.XbarCol[3] = bitvec.New(0) // one row on two columns
	s.XbarRows = bitvec.New(0)
	s.XbarIn, s.XbarOut = 1, 2
	got = run(t, cfg, s)
	if !got[XbarRowOneHot] {
		t.Error("checker 15 silent")
	}
	if !got[XbarFlitConservation] {
		t.Error("checker 16 silent on duplication")
	}
}

func TestUnitChecker17InvalidState(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[2][3] = router.PreVC{State: router.VCState(6)} // illegal encoding
	got := run(t, cfg, s)
	if !got[ConsistentVCState] {
		t.Error("checker 17 silent on invalid state encoding")
	}
}

func TestUnitCheckers18And25to30Buffers(t *testing.T) {
	cfg := unitCfg()
	p := &flit.Packet{ID: 9, Src: 0, Dest: 5, Length: 5}
	body := p.Flits(1, 1)[1]

	// 18: body flit into a free VC.
	s := sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 2, Kind: flit.Body, VCField: 0, Strobe: bitvec.New(0), Flit: body,
		Targets: []router.WriteTarget{{VC: 0, StateBefore: router.VCIdle, ArrivedAfter: 2}},
	})
	got := run(t, cfg, s)
	if !got[HeaderOnlyInFreeVC] {
		t.Error("checker 18 silent")
	}

	// 25: write strobe on a full buffer.
	s = sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 2, Kind: flit.Body, VCField: 1, Strobe: bitvec.New(1), Flit: body,
		Targets: []router.WriteTarget{{VC: 1, FullBefore: true, StateBefore: router.VCActive}},
	})
	expectOnly(t, run(t, cfg, s), WriteToFullBuffer)

	// 24 + 29: multi-strobe read with an empty target.
	s = sig(cfg, 5, 100)
	s.Reads[1] = router.ReadSig{Strobe: bitvec.New(0, 2), EmptyBits: bitvec.New(2)}
	expectOnly(t, run(t, cfg, s), ReadFromEmptyBuffer, ConcurrentVCReads)

	// 30: multi-strobe write and zero-strobe write.
	s = sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 0, Kind: flit.Body, VCField: 0, Strobe: bitvec.New(0, 1), Flit: body,
		Targets: []router.WriteTarget{
			{VC: 0, StateBefore: router.VCActive, ArrivedAfter: 2},
			{VC: 1, StateBefore: router.VCActive, ArrivedAfter: 2},
		},
	})
	expectOnly(t, run(t, cfg, s), ConcurrentVCWrites)

	s = sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 0, Kind: flit.Body, VCField: 5, Strobe: 0, Flit: body,
	})
	expectOnly(t, run(t, cfg, s), ConcurrentVCWrites)
}

func TestUnitChecker26Atomicity(t *testing.T) {
	cfg := unitCfg()
	head := (&flit.Packet{ID: 9, Src: 0, Dest: 5, Length: 5}).Flits(1, 1)[0]
	s := sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 3, Kind: flit.Head, VCField: 2, Strobe: bitvec.New(2), Flit: head,
		Targets: []router.WriteTarget{{VC: 2, StateBefore: router.VCActive, ArrivedAfter: 1}},
	})
	expectOnly(t, run(t, cfg, s), BufferAtomicity)
}

func TestUnitChecker28FlitCount(t *testing.T) {
	cfg := unitCfg()
	body := (&flit.Packet{ID: 9, Src: 0, Dest: 5, Length: 5}).Flits(1, 1)[1]
	s := sig(cfg, 5, 100)
	// Sixth flit of a five-flit class.
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 3, Kind: flit.Body, VCField: 2, Strobe: bitvec.New(2), Flit: body,
		Targets: []router.WriteTarget{{VC: 2, StateBefore: router.VCActive, ArrivedAfter: 6}},
	})
	expectOnly(t, run(t, cfg, s), PacketFlitCount)

	// Tail arriving as flit 3 of 5.
	tail := (&flit.Packet{ID: 9, Src: 0, Dest: 5, Length: 5}).Flits(1, 1)[4]
	s = sig(cfg, 5, 100)
	s.Arrivals = append(s.Arrivals, router.Arrival{
		Port: 3, Kind: flit.Tail, VCField: 2, Strobe: bitvec.New(2), Flit: tail,
		Targets: []router.WriteTarget{{VC: 2, StateBefore: router.VCActive, ArrivedAfter: 3}},
	})
	expectOnly(t, run(t, cfg, s), PacketFlitCount)
}

func TestUnitChecker31ConcurrentRC(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[0][0] = router.PreVC{State: router.VCRouting, HasHead: true, HeadKind: flit.Head}
	s.Pre.In[0][1] = router.PreVC{State: router.VCRouting, HasHead: true, HeadKind: flit.Head}
	for v := 0; v < 2; v++ {
		// Straight-through continuation south (router 5 is (1,1); the
		// destination (1,0) lies below): legal and minimal, so only the
		// concurrency rule trips.
		s.RCExecs = append(s.RCExecs, router.RCExec{
			Port: 0, VC: v, HasHead: true, HeadKind: flit.Head,
			DestX: 1, DestY: 0, TrueDestX: 1, TrueDestY: 0, OutDir: int(topology.South),
		})
	}
	s.RCDone[0] = bitvec.New(0, 1)
	expectOnly(t, run(t, cfg, s), ConcurrentRCComplete)
}

func TestUnitChecker32Misdelivery(t *testing.T) {
	cfg := unitCfg()
	f := (&flit.Packet{ID: 9, Src: 0, Dest: 9, Length: 1}).Flits(1, 2)[0]
	s := sig(cfg, 5, 100) // ejecting at router 5, but Dest is 9
	s.XbarCol[int(topology.Local)] = bitvec.New(0)
	s.XbarRows = bitvec.New(0)
	s.XbarIn, s.XbarOut = 1, 1
	s.Departures = append(s.Departures, router.Departure{
		OutPort: int(topology.Local), OutVC: 0, InPort: 0, Flit: f,
	})
	expectOnly(t, run(t, cfg, s), EndToEndMisdelivery)
}

func TestUnitSpeculativeLatchTolerated(t *testing.T) {
	cfg := unitCfg()
	cfg.Speculative = true
	s := sig(cfg, 5, 100)
	// A speculative SA grant to a VC still waiting for VA must not trip
	// the pipeline-order rule (paper §4.4).
	s.Pre.In[1][0] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 2, BufLen: 1}
	s.SA1[1] = router.ReqGnt{Req: bitvec.New(0), Gnt: bitvec.New(0)}
	s.SA2[2] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	s.SALatches = append(s.SALatches, router.SALatch{
		OutPort: 2, InPort: 1, InVC: 0, OutVC: 0, CreditsBefore: 0, Speculative: true,
	})
	expectOnly(t, run(t, cfg, s))

	// The same latch non-speculatively is a violation.
	cfg2 := unitCfg()
	s.SALatches[0].Speculative = false
	got := run(t, cfg2, s)
	if !got[ConsistentVCState] {
		t.Error("non-speculative SA on a waiting VC not flagged")
	}
}

// TestCheckAllocationCountsWithoutAllocating: a router that makes two VA
// assignments in a cycle — any busy one — has them counted per input and
// per output VC for invariance 8, in arrays on the stack: the sweep
// allocates nothing (it made two maps per such router-cycle). The counts
// still find what the maps found: the same record with the second
// assignment duplicated onto the first one's output VC, and then onto its
// input VC as well, fires the checker once per clash.
func TestCheckAllocationCountsWithoutAllocating(t *testing.T) {
	cfg := unitCfg()
	s := sig(cfg, 5, 100)
	s.Pre.In[0][1] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 2, BufLen: 1}
	s.Pre.In[3][0] = router.PreVC{State: router.VCWaitingVA, HasHead: true, HeadKind: flit.Head, Route: 1, BufLen: 1}
	s.VA1[0] = router.ReqGnt{Req: bitvec.New(1), Gnt: bitvec.New(1)}
	s.VA1[3] = router.ReqGnt{Req: bitvec.New(0), Gnt: bitvec.New(0)}
	s.VA2[2] = router.ReqGnt{Req: bitvec.New(0), Gnt: bitvec.New(0)}
	s.VA2[1] = router.ReqGnt{Req: bitvec.New(3), Gnt: bitvec.New(3)}
	s.VAAssigns = append(s.VAAssigns,
		router.VAAssign{OutPort: 2, InPort: 0, InVC: 1, OutVC: 0, TargetFree: true, TargetCredits: cfg.BufDepth},
		router.VAAssign{OutPort: 1, InPort: 3, InVC: 0, OutVC: 0, TargetFree: true, TargetCredits: cfg.BufDepth},
	)
	s.RecomputeMasks()
	e := NewEngine(cfg, Options{})
	if allocs := testing.AllocsPerRun(100, func() { e.checkAllocation(s) }); allocs != 0 {
		t.Errorf("checkAllocation allocates %.0f times on a record with two VA assignments, want 0", allocs)
	}
	if e.Detected() {
		t.Fatalf("the healthy two-assignment record fired %v", e.FiredCheckers())
	}

	fired := func() int {
		s.RecomputeMasks()
		e := NewEngine(cfg, Options{KeepViolations: true})
		e.checkAllocation(s)
		return countViolations(e)[OneToOneVCAssignment]
	}
	s.VAAssigns[1].OutPort, s.Pre.In[3][0].Route = 2, 2 // both onto output VC (2,0)
	s.VA2[2] = router.ReqGnt{Req: bitvec.New(0, 3), Gnt: bitvec.New(0, 3)}
	if n := fired(); n != 1 {
		t.Errorf("two input VCs assigned one output VC: checker 8 fired %d times, want 1", n)
	}
	s.VAAssigns[1].InPort, s.VAAssigns[1].InVC = 0, 1 // and from input VC (0,1) twice
	if n := fired(); n != 2 {
		t.Errorf("one input VC assigned twice, to one output VC: checker 8 fired %d times, want 2", n)
	}
}
