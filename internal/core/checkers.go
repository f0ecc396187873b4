package core

import (
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// maxLegalDir is the highest legal output-direction code (Local).
const maxLegalDir = int(topology.Local)

// checkRC implements invariances 1–3, 20, 21 and feeds 31's data: the
// routing-computation unit may only produce directions that exist, that
// honour the algorithm's turn rules, and (for minimal algorithms) that
// step toward the destination; and it may only complete on the header
// flit of a non-empty VC.
func (e *Engine) checkRC(s *router.Signals) {
	m := e.cfg.Mesh
	cx, cy := m.Coords(s.Router)
	for i := range s.RCExecs {
		x := &s.RCExecs[i]
		out := x.OutDir
		in := topology.Direction(x.Port)
		if out > maxLegalDir || !s.Ports.Get(out) {
			// Invariance 2: impossible code, or a port this router does
			// not have.
			e.emit(InvalidRCOutput, s.Router, s.Cycle, x.Port, x.VC,
				"RC produced direction code %d", out)
		} else {
			dir := topology.Direction(out)
			if !e.cfg.Alg.LegalTurn(in, dir) {
				e.emit(IllegalTurn, s.Router, s.Cycle, x.Port, x.VC,
					"turn %s->%s forbidden by %s routing", in, dir, e.cfg.Alg.Name())
			}
			if e.enabled[NonMinimalRoute] && e.cfg.Alg.Minimal() && x.HasHead {
				// The checker taps the destination straight from the
				// buffered header (the VC status table), independent of
				// the RC unit's input wires — so a corrupted input wire
				// shows up as a non-minimal output.
				if !stepsToward(cx, cy, x.TrueDestX, x.TrueDestY, dir) {
					e.emit(NonMinimalRoute, s.Router, s.Cycle, x.Port, x.VC,
						"direction %s does not approach (%d,%d)", dir, x.TrueDestX, x.TrueDestY)
				}
			}
		}
		switch {
		case !x.HasHead:
			// Invariance 21: an RC→VA transition on an empty buffer.
			e.emit(RCOnEmptyVC, s.Router, s.Cycle, x.Port, x.VC, "RC completed on empty VC")
		case !x.HeadKind.IsHead():
			// Invariance 20: RC is performed only on header flits.
			e.emit(RCOnNonHeader, s.Router, s.Cycle, x.Port, x.VC,
				"RC completed on %s flit", x.HeadKind)
		}
	}
}

// stepsToward reports whether one hop in dir from (cx, cy) strictly
// decreases the Manhattan distance to (dx, dy); dir == Local is minimal
// exactly when the packet is already home.
func stepsToward(cx, cy, dx, dy int, dir topology.Direction) bool {
	switch dir {
	case topology.Local:
		return cx == dx && cy == dy
	case topology.North:
		return dy > cy
	case topology.South:
		return dy < cy
	case topology.East:
		return dx > cx
	case topology.West:
		return dx < cx
	}
	return false
}

// checkArbiters implements invariances 4–6 for all four arbiter banks:
// a grant without a request, no grant despite requests, and multi-hot
// grant vectors are impossible outputs of a healthy arbiter (the
// paper's Figure 4 circuit checks exactly the first of these).
// The sweep walks Signals.Arbiters, the arbiters whose request or grant is
// not zero: an idle arbiter satisfies all three vacuously.
func (e *Engine) checkArbiters(s *router.Signals) {
	for w := s.Arbiters; !w.IsZero(); {
		var i int
		i, w = w.NextBit()
		b, p := i/router.P, i%router.P
		rg := s.Bank(b)[p]
		name := bankNames[b]
		if !(rg.Gnt &^ rg.Req).IsZero() {
			e.emit(GrantWithoutRequest, s.Router, s.Cycle, p, -1,
				"%s grant %s without request %s", name, rg.Gnt, rg.Req)
		}
		if !rg.Req.IsZero() && rg.Gnt.IsZero() {
			e.emit(GrantToNobody, s.Router, s.Cycle, p, -1,
				"%s requests %s but no grant", name, rg.Req)
		}
		if !rg.Gnt.AtMostOneHot() {
			e.emit(GrantNotOneHot, s.Router, s.Cycle, p, -1,
				"%s grant vector %s is multi-hot", name, rg.Gnt)
		}
	}
}

// bankNames names the arbiter banks, BankVA1 … BankSA2.
var bankNames = [...]string{router.BankVA1: "VA1", router.BankSA1: "SA1", router.BankVA2: "VA2", router.BankSA2: "SA2"}

// checkAllocation implements invariances 7–13, 19, 22 and 23: the
// cross-module agreement rules between RC, VA and SA, plus the
// legality of allocation targets.
func (e *Engine) checkAllocation(s *router.Signals) {
	e.checkStageWires(s)
	// --- VA side ---
	// Assignments per input VC and per output VC (invariance 8). A VAAssign
	// names its VCs by port and VC-identifier code, which the arrays span;
	// the count of an identifier off them (no router emits one) goes to no
	// VC and cannot clash.
	var inVCAssigns, outVCAssigns [router.P][router.MaxVCs]uint8
	count := func(n *[router.P][router.MaxVCs]uint8, p, v int) {
		if uint(p) < uint(router.P) && uint(v) < router.MaxVCs {
			n[p][v]++
		}
	}
	for i := range s.VAAssigns {
		a := &s.VAAssigns[i]
		pre := preVC(s, a.InPort, a.InVC)

		if a.OutVC >= e.cfg.VCs {
			// Invariance 19: the stored output VC value is out of range.
			e.emit(InvalidOutputVC, s.Router, s.Cycle, a.InPort, a.InVC,
				"VA assigned out-of-range output VC %d", a.OutVC)
		} else if !a.TargetFree || a.TargetCredits < e.cfg.BufDepth {
			// Invariance 7: allocation must target a free VC with a full
			// complement of credits.
			e.emit(GrantToOccupiedOrFull, s.Router, s.Cycle, a.OutPort, a.OutVC,
				"VA granted VC %d of port %d (free=%v credits=%d)",
				a.OutVC, a.OutPort, a.TargetFree, a.TargetCredits)
		}
		// Invariance 12: a VA2 winner must hold a VA1 win this cycle.
		if s.VA1[a.InPort].Gnt.IsZero() {
			e.emit(IntraVAStageOrder, s.Router, s.Cycle, a.InPort, a.InVC,
				"VA2 granted port %d without a VA1 winner", a.InPort)
		}
		// Invariance 10: the allocated output port must be the one RC
		// computed for this VC.
		if pre != nil && pre.Route != a.OutPort {
			e.emit(VAAgreesWithRC, s.Router, s.Cycle, a.InPort, a.InVC,
				"VA allocated port %d but RC computed %d", a.OutPort, pre.Route)
		}
		// Invariance 17 (pipeline order): VA completes only on a VC that
		// was waiting for VA.
		if pre != nil && pre.State != router.VCWaitingVA {
			e.emit(ConsistentVCState, s.Router, s.Cycle, a.InPort, a.InVC,
				"VA completed on VC in state %s", pre.State)
		}
		// Invariances 22/23: VA completes only with a header flit at the
		// head of a non-empty buffer.
		if pre != nil {
			switch {
			case pre.BufLen == 0:
				e.emit(VAOnEmptyVC, s.Router, s.Cycle, a.InPort, a.InVC, "VA completed on empty VC")
			case !pre.HeadKind.IsHead():
				e.emit(VAOnNonHeader, s.Router, s.Cycle, a.InPort, a.InVC,
					"VA completed on %s flit", pre.HeadKind)
			}
		}
		count(&inVCAssigns, a.InPort, a.InVC)
		if a.OutVC < e.cfg.VCs {
			count(&outVCAssigns, a.OutPort, a.OutVC)
		}
	}
	// Invariance 8: one-to-one VC assignment, both directions; a clash takes
	// two assignments.
	if len(s.VAAssigns) > 1 {
		for p := range inVCAssigns {
			for v, n := range inVCAssigns[p] {
				if n > 1 {
					e.emit(OneToOneVCAssignment, s.Router, s.Cycle, p, v,
						"input VC assigned %d output VCs in one cycle", n)
				}
			}
		}
		for p := range outVCAssigns {
			for v, n := range outVCAssigns[p] {
				if n > 1 {
					e.emit(OneToOneVCAssignment, s.Router, s.Cycle, p, v,
						"output VC granted to %d input VCs in one cycle", n)
				}
			}
		}
	}

	// --- SA side ---
	var perInPort [router.P]int
	for i := range s.SALatches {
		l := &s.SALatches[i]
		pre := preVC(s, l.InPort, l.InVC)
		perInPort[l.InPort]++

		// Invariance 13: an SA2 winner must hold an SA1 win this cycle.
		if s.SA1[l.InPort].Gnt.IsZero() {
			e.emit(IntraSAStageOrder, s.Router, s.Cycle, l.InPort, l.InVC,
				"SA2 granted port %d without an SA1 winner", l.InPort)
		}
		// Invariance 11: the switch connects the VC toward the port RC
		// computed.
		if pre != nil && pre.Route != l.OutPort {
			e.emit(SAAgreesWithRC, s.Router, s.Cycle, l.InPort, l.InVC,
				"SA connected port %d but RC computed %d", l.OutPort, pre.Route)
		}
		// Invariance 7 (credit clause): the switch may not forward into
		// a VC with no credits (checked in SA1, so a granted VC always
		// has one — unless the grant is speculative, which commits or
		// nullifies at traversal).
		if !l.Speculative && l.OutVC < e.cfg.VCs && l.CreditsBefore <= 0 {
			e.emit(GrantToOccupiedOrFull, s.Router, s.Cycle, l.OutPort, l.OutVC,
				"SA granted toward VC %d of port %d with no credits", l.OutVC, l.OutPort)
		}
		// Invariance 19 (ST clause): the output VC register driving the
		// link is out of range.
		if l.OutVC >= e.cfg.VCs {
			e.emit(InvalidOutputVC, s.Router, s.Cycle, l.InPort, l.InVC,
				"SA forwarding with out-of-range output VC %d", l.OutVC)
		}
		// Invariance 17 (pipeline order): SA success requires VA done
		// (state Active) — except for speculative grants.
		if pre != nil && pre.State != router.VCActive && !l.Speculative {
			e.emit(ConsistentVCState, s.Router, s.Cycle, l.InPort, l.InVC,
				"SA granted VC in state %s", pre.State)
		}
	}
	// Invariance 9: an input port must not reach multiple output ports
	// in one cycle.
	for p, n := range perInPort {
		if n > 1 {
			e.emit(OneToOnePortAssignment, s.Router, s.Cycle, p, -1,
				"input port connected to %d output ports", n)
		}
	}
}

// checkStageWires applies the pipeline-order and agreement rules at the
// allocator request/grant wires themselves (invariances 17, 10–13):
// a VA request or local grant may only exist for a VC waiting for VA;
// an SA request or local grant only for a VC whose VA is done (or
// speculatively, still waiting, in speculative mode); and a global
// request from a port must be backed by that port's local winner
// routing to exactly that output. Each loop walks the ports whose arbiters
// have a request or a grant (Signals.Arbiters): an idle one has no bit to
// check.
func (e *Engine) checkStageWires(s *router.Signals) {
	first := router.BankPorts(s.Arbiters, router.BankVA1) | router.BankPorts(s.Arbiters, router.BankSA1)
	for ps := first; !ps.IsZero(); {
		var p int
		p, ps = ps.NextBit()
		for w := s.VA1[p].Req | s.VA1[p].Gnt; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			pre := preVC(s, p, v)
			if pre != nil && pre.State != router.VCWaitingVA {
				e.emit(ConsistentVCState, s.Router, s.Cycle, p, v,
					"VA1 activity for VC in state %s", pre.State)
			}
		}
		for w := s.SA1[p].Req | s.SA1[p].Gnt; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			pre := preVC(s, p, v)
			if pre == nil {
				continue
			}
			okState := pre.State == router.VCActive ||
				e.cfg.Speculative && pre.State == router.VCWaitingVA
			if !okState {
				e.emit(ConsistentVCState, s.Router, s.Cycle, p, v,
					"SA1 activity for VC in state %s", pre.State)
			}
		}
	}
	second := router.BankPorts(s.Arbiters, router.BankVA2) | router.BankPorts(s.Arbiters, router.BankSA2)
	for outs := second; !outs.IsZero(); {
		var o int
		o, outs = outs.NextBit()
		for rw := s.VA2[o].Req; !rw.IsZero(); {
			var p int
			p, rw = rw.NextBit()
			w := s.VA1[p].Gnt.First()
			if w < 0 {
				e.emit(IntraVAStageOrder, s.Router, s.Cycle, p, -1,
					"VA2 request from port %d without a VA1 winner", p)
				continue
			}
			if pre := preVC(s, p, w); pre != nil && pre.Route != o {
				e.emit(VAAgreesWithRC, s.Router, s.Cycle, p, w,
					"VA2 request targets port %d but RC computed %d", o, pre.Route)
			}
		}
		for rw := s.SA2[o].Req; !rw.IsZero(); {
			var p int
			p, rw = rw.NextBit()
			w := s.SA1[p].Gnt.First()
			if w < 0 {
				e.emit(IntraSAStageOrder, s.Router, s.Cycle, p, -1,
					"SA2 request from port %d without an SA1 winner", p)
				continue
			}
			if pre := preVC(s, p, w); pre != nil && pre.Route != o {
				e.emit(SAAgreesWithRC, s.Router, s.Cycle, p, w,
					"SA2 request targets port %d but RC computed %d", o, pre.Route)
			}
		}
	}
}

// preVC returns the pre-cycle snapshot of (port, vc), or nil when the
// indices fall outside the configuration (stale latches can point
// anywhere).
func preVC(s *router.Signals, p, v int) *router.PreVC {
	if p < 0 || p >= router.P || v < 0 || v >= len(s.Pre.In[p]) {
		return nil
	}
	return &s.Pre.In[p][v]
}

// checkXbar implements invariances 14–16: each crossbar column and row
// carries at most one connection, and flits are conserved across the
// switch. It walks the columns that connect anything (Signals.XbarCols).
func (e *Engine) checkXbar(s *router.Signals) {
	var rowUse [router.P]int
	for outs := s.XbarCols; !outs.IsZero(); {
		var o int
		o, outs = outs.NextBit()
		col := s.XbarCol[o]
		if !col.AtMostOneHot() {
			e.emit(XbarColumnOneHot, s.Router, s.Cycle, o, -1,
				"column %d control vector %s is multi-hot", o, col)
		}
		for w := col; !w.IsZero(); {
			var r int
			r, w = w.NextBit()
			rowUse[r]++
			if !s.XbarRows.Get(r) && !(e.cfg.Speculative && s.XbarSpecNull.Get(o)) {
				// A crossbar connection was set up but the selected row
				// presents no flit: the reserved traversal vanished. (A
				// nullified speculative grant is the legal exception.)
				e.emit(XbarFlitConservation, s.Router, s.Cycle, o, -1,
					"column %d connected to row %d which carries no flit", o, r)
			}
		}
	}
	for r, n := range rowUse {
		if n > 1 {
			e.emit(XbarRowOneHot, s.Router, s.Cycle, r, -1,
				"row %d connected to %d columns", r, n)
		}
	}
	if s.XbarIn != s.XbarOut {
		e.emit(XbarFlitConservation, s.Router, s.Cycle, -1, -1,
			"%d flits entered the crossbar, %d left", s.XbarIn, s.XbarOut)
	}
}

// checkBuffers implements invariances 17 (state validity), 18, 24–28:
// the buffer read/write legality rules and packet-shape rules.
func (e *Engine) checkBuffers(s *router.Signals) {
	// Invariances 17, 2 and 19 at the VC status table: the registers
	// must hold a mutually consistent configuration every cycle. These
	// are the checks that catch single-event upsets in the state
	// registers themselves — corruption that would otherwise strand a
	// packet without ever producing an illegal *operation*. The sweep
	// walks the snapshot's activity masks word-at-a-time instead of
	// every VC: a free, empty VC (the overwhelming majority each cycle)
	// satisfies all four checks vacuously, and the mask is computed from
	// the same post-fault snapshot values the checks consume, so the
	// sparse sweep flags exactly what the full sweep would.
	for p := 0; p < router.P; p++ {
		for w := s.Pre.Active[p]; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			pre := &s.Pre.In[p][v]
			st := pre.State
			if !st.Valid() {
				e.emit(ConsistentVCState, s.Router, s.Cycle, p, v,
					"state register holds invalid encoding %d", int(st))
				continue
			}
			// A free VC cannot hold buffered flits: every flit enters
			// through a header that claims the VC.
			if st == router.VCIdle && pre.BufLen > 0 {
				e.emit(ConsistentVCState, s.Router, s.Cycle, p, v,
					"VC is free but buffers %d flits", pre.BufLen)
			}
			// Past the RC stage, the latched route must name a real
			// output port (the register holds the RC output; an illegal
			// value there is invariance 2 in stored form).
			if st == router.VCWaitingVA || st == router.VCActive {
				if pre.Route > maxLegalDir || !s.Ports.Get(pre.Route) {
					e.emit(InvalidRCOutput, s.Router, s.Cycle, p, v,
						"route register holds invalid direction %d in state %s", pre.Route, st)
				}
			}
			// Past the VA stage, the latched output VC must be in range
			// (invariance 19 in stored form).
			if st == router.VCActive && pre.OutVC >= e.cfg.VCs {
				e.emit(InvalidOutputVC, s.Router, s.Cycle, p, v,
					"output VC register holds out-of-range value %d", pre.OutVC)
			}
		}
	}
	// Invariance 24: reads from empty buffers, at the ports that read.
	for ps := s.ReadPorts; !ps.IsZero(); {
		var p int
		p, ps = ps.NextBit()
		for w := s.Reads[p].EmptyBits; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			e.emit(ReadFromEmptyBuffer, s.Router, s.Cycle, p, v, "read strobe on empty buffer")
		}
	}
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		for j := range a.Targets {
			t := &a.Targets[j]
			if t.FullBefore {
				// Invariance 25.
				e.emit(WriteToFullBuffer, s.Router, s.Cycle, a.Port, t.VC, "write strobe on full buffer")
				continue
			}
			head := a.Kind.IsHead()
			if t.StateBefore == router.VCIdle && !head {
				// Invariance 18: only a header may open a free VC.
				e.emit(HeaderOnlyInFreeVC, s.Router, s.Cycle, a.Port, t.VC,
					"%s flit entered a free VC", a.Kind)
			}
			if e.cfg.AtomicVC {
				if head && t.StateBefore != router.VCIdle {
					// Invariance 26: atomic buffers accept one packet.
					e.emit(BufferAtomicity, s.Router, s.Cycle, a.Port, t.VC,
						"header arrived at VC in state %s", t.StateBefore)
				}
			} else if t.HasPrev {
				// Invariance 27: in non-atomic buffers a tail may only
				// be followed by a header, and a header may only follow
				// a tail.
				switch {
				case t.PrevKind.IsTail() && !head:
					e.emit(NonAtomicPacketMixing, s.Router, s.Cycle, a.Port, t.VC,
						"%s flit follows a tail", a.Kind)
				case !t.PrevKind.IsTail() && head && t.StateBefore != router.VCIdle:
					e.emit(NonAtomicPacketMixing, s.Router, s.Cycle, a.Port, t.VC,
						"header follows a %s flit", t.PrevKind)
				}
			}
			// Invariance 28: packets of a class have a fixed length.
			want := e.cfg.PacketLen(classOfArrival(e.cfg, a.Flit.Class, t.VC))
			switch {
			case t.ArrivedAfter > want:
				e.emit(PacketFlitCount, s.Router, s.Cycle, a.Port, t.VC,
					"flit %d of a %d-flit class", t.ArrivedAfter, want)
			case a.Kind.IsTail() && t.ArrivedAfter != want:
				e.emit(PacketFlitCount, s.Router, s.Cycle, a.Port, t.VC,
					"tail after %d flits, class length %d", t.ArrivedAfter, want)
			}
		}
	}
}

func classOfArrival(cfg *router.Config, flitClass, vc int) int {
	if flitClass >= 0 && flitClass < cfg.Classes {
		return flitClass
	}
	return cfg.ClassOfVC(vc)
}

// checkPortLevel implements invariances 29–31: the single de-mux/mux
// per port admits one read, one write and one RC completion per cycle,
// checked at the ports that read or completed RC.
func (e *Engine) checkPortLevel(s *router.Signals) {
	for ps := s.ReadPorts | s.RCPorts; !ps.IsZero(); {
		var p int
		p, ps = ps.NextBit()
		if s.Reads[p].Strobe.Count() > 1 {
			e.emit(ConcurrentVCReads, s.Router, s.Cycle, p, -1,
				"read strobes %s active concurrently", s.Reads[p].Strobe)
		}
		if s.RCDone[p].Count() > 1 {
			e.emit(ConcurrentRCComplete, s.Router, s.Cycle, p, -1,
				"RC completed for VCs %s concurrently", s.RCDone[p])
		}
	}
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		// The port de-multiplexer must route each arriving flit into
		// exactly one VC buffer: several strobes duplicate the flit,
		// zero strobes silently drop it — both are illegal outputs of
		// the de-mux.
		switch n := a.Strobe.Count(); {
		case n > 1:
			e.emit(ConcurrentVCWrites, s.Router, s.Cycle, a.Port, -1,
				"write strobes %s active concurrently", a.Strobe)
		case n == 0 && a.Flit != nil:
			e.emit(ConcurrentVCWrites, s.Router, s.Cycle, a.Port, -1,
				"arriving flit produced no write strobe")
		}
	}
}

// checkEndToEnd implements invariance 32: a flit leaving through the
// local port must be destined to this node. (The flit's destination
// field travels under the error-detecting code the paper assumes for
// the datapath, so the checker may trust it.)
func (e *Engine) checkEndToEnd(s *router.Signals) {
	for i := range s.Departures {
		d := &s.Departures[i]
		if d.OutPort != int(topology.Local) {
			continue
		}
		if d.Flit != nil && d.Flit.Dest != s.Router {
			e.emit(EndToEndMisdelivery, s.Router, s.Cycle, d.OutPort, d.OutVC,
				"flit for node %d ejected at node %d", d.Flit.Dest, s.Router)
		}
	}
}
