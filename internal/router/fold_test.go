package router

import (
	"fmt"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/soa"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
)

// rebuiltFold folds r from its registers, buffers and latches alone, every
// term taken now and none read from or written to the fold cache: what
// FoldState's cache must stand for. It shares with the production fold only
// what has no cache to go stale, foldOutputs' packing of the output side
// (TestPortWordsPackLosslessly holds that to the registers).
func rebuiltFold(r *Router) uint64 {
	h := statehash.Seed
	for p := 0; p < P; p++ {
		if !r.ports.Get(p) {
			continue
		}
		t := statehash.Seed
		for v := range r.in[p].vcs {
			t = statehash.Fold(t, rebuiltVCTerm(r, p, v))
		}
		h = statehash.Fold(h, r.foldOutputs(p, t))
	}
	return statehash.Fold(statehash.Seed, h)
}

func rebuiltVCTerm(r *Router, p, v int) uint64 {
	vc, i := &r.in[p].vcs[v], r.iv(p, v)
	if VCState(r.st.VCState[i]) == VCIdle && len(vc.buf) == 0 {
		return idleVCTerm // its registers and latches are residue
	}
	regs := uint64(r.st.VCState[i]) | uint64(r.st.VCRoute[i])<<8 | uint64(r.st.VCOutVC[i])<<16 |
		uint64(uint32(r.st.Arrived[i]))<<32
	if vc.hasLastWritten {
		regs |= 1 << 25
	}
	h := statehash.Fold(statehash.Fold(statehash.Seed, regs), r.st.PktID[i])
	h = statehash.FoldInt(h, len(vc.buf))
	for _, s := range vc.buf {
		h = statehash.Fold(h, s.f.Digest())
	}
	if vc.hasLastWritten {
		h = statehash.Fold(h, vc.lastWritten.Digest())
	}
	return h
}

// requireFoldRebuilt holds r's fold, as its cache answers it, to the
// rebuilt one.
func requireFoldRebuilt(t *testing.T, what string, r *Router, cycle int64) {
	t.Helper()
	if got, want := r.FoldState(statehash.Seed), rebuiltFold(r); got != want {
		t.Fatalf("%s, boundary %d: router folds to %#x from its cache, to %#x rebuilt from nothing (stale ports %05b)", what, cycle, got, want, r.portDirty)
	}
}

// traffic is a fixed schedule of packets for the centre router of the 3×3
// mesh: on every port a packet every few cycles, to destinations on all
// sides, so that every input port and every output port, every pipeline
// stage and the credit path are in use at once. The packets' VCs rotate,
// or, back to back, a port's packets all take one VC, each header on the
// heels of the tail before it.
type traffic struct {
	g          *rig
	pending    [P][]*flit.Flit
	nextPkt    uint64
	backToBack bool
}

func newTraffic(g *rig) *traffic { return &traffic{g: g} }

// cycle stages this cycle's flits and steps the router; every departure's
// credit comes back the cycle after, as from a neighbour that drains.
func (tr *traffic) cycle(length int) {
	g := tr.g
	mesh := g.r.Config().Mesh
	dests := []int{mesh.NodeAt(2, 1), mesh.NodeAt(0, 1), mesh.NodeAt(1, 0), mesh.NodeAt(1, 2), mesh.NodeAt(1, 1)}
	for p := 0; p < P; p++ {
		if len(tr.pending[p]) == 0 && (tr.backToBack || (g.cycle+int64(2*p))%7 == 0) {
			tr.nextPkt++
			fl := g.packet(tr.nextPkt, dests[(int(tr.nextPkt)+p)%len(dests)], length)
			for _, f := range fl {
				if f.VC = int(tr.nextPkt) % g.r.Config().VCs; tr.backToBack {
					f.VC = p % g.r.Config().VCs
				}
			}
			tr.pending[p] = fl
		}
		if len(tr.pending[p]) > 0 {
			g.r.StageArrival(topology.Direction(p), tr.pending[p][0])
			tr.pending[p] = tr.pending[p][1:]
		}
	}
	for _, d := range g.step() {
		if d.OutVC < g.r.Config().VCs {
			g.r.StageCredit(topology.Direction(d.OutPort), d.OutVC)
		}
	}
}

// TestFoldCacheMatchesRebuild drives the router through everything that
// writes folded state — healthy traffic on every port, transient upsets of
// all four register kinds on busy and on idle VCs, a permanent fault, a
// buffer write that strobes two VCs, a read strobe on an empty buffer, the
// non-atomic restart of a header that sits behind a departing tail — and
// after every cycle holds the fold its cache answers to the fold rebuilt
// from nothing. A write that left a kept term standing, at any of the three
// levels, shows on the cycle it happens.
func TestFoldCacheMatchesRebuild(t *testing.T) {
	at := func(cycle int64, typ fault.Type, kind fault.Kind, port, vc, width, bit int) fault.Fault {
		return fault.Fault{Site: fault.Site{Router: 4, Kind: kind, Port: port, VC: vc, Width: width}, Bit: bit, Cycle: cycle, Type: typ}
	}
	local, east, west := int(topology.Local), int(topology.East), int(topology.West)
	for _, tc := range []struct {
		name   string
		mut    func(*Config)
		length int
		faults []fault.Fault
	}{
		{name: "healthy", length: 4},
		{name: "upsets-of-every-register", length: 4, faults: []fault.Fault{
			at(12, fault.Transient, fault.VCStateReg, local, 1, 3, 0),
			at(14, fault.Transient, fault.VCRouteReg, west, 2, 3, 1),
			at(16, fault.Transient, fault.VCOutVCReg, local, 1, 3, 2),
			at(18, fault.Transient, fault.CreditCountReg, east, 0, 3, 1),
			// And on VCs that are idle, which no pipeline stage will write.
			at(40, fault.Transient, fault.VCRouteReg, east, 3, 3, 0),
			at(41, fault.Transient, fault.VCOutVCReg, east, 3, 3, 0),
			at(42, fault.Transient, fault.CreditCountReg, west, 3, 3, 2),
			at(43, fault.Transient, fault.VCStateReg, east, 3, 3, 1),
		}},
		{name: "permanent-fault", length: 4, faults: []fault.Fault{at(10, fault.Permanent, fault.SA2Req, east, -1, P, 0)}},
		{name: "multi-strobe-write", length: 4, faults: []fault.Fault{at(8, fault.Permanent, fault.BufWrite, local, -1, 4, 3)}},
		{name: "garbage-read", length: 4, faults: []fault.Fault{at(20, fault.Permanent, fault.BufRead, west, -1, 4, 3)}},
		{name: "non-atomic-restart", length: 2, mut: func(c *Config) { c.AtomicVC, c.LenByClass = false, []int{2} }},
		{name: "speculative", length: 4, mut: func(c *Config) { c.Speculative = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newRig(t, tc.mut)
			if len(tc.faults) > 0 {
				g.r.SetPlane(fault.NewPlane(tc.faults...))
			}
			tr := newTraffic(g)
			tr.backToBack = !g.r.cfg.AtomicVC
			requireFoldRebuilt(t, tc.name, g.r, 0)
			var strobed2, garbage, restarted bool
			for g.cycle < 120 {
				behind := false
				if !g.r.cfg.AtomicVC {
					for p := range g.r.in {
						for v := range g.r.in[p].vcs {
							if b := g.r.in[p].vcs[v].buf; len(b) > 1 && b[0].f.Kind.IsTail() && b[1].f.Kind.IsHead() {
								behind = true
							}
						}
					}
				}
				tr.cycle(tc.length)
				requireFoldRebuilt(t, tc.name, g.r, g.cycle)
				s := g.r.Signals()
				for _, a := range s.Arrivals {
					strobed2 = strobed2 || a.Strobe.Count() > 1
				}
				for _, rd := range s.Reads {
					garbage = garbage || !rd.EmptyBits.IsZero()
				}
				restarted = restarted || behind && len(s.Departures) > 0
			}
			if _, terms := g.r.FoldCounts(); terms == 0 || terms >= 120*int64(P*g.r.cfg.VCs) {
				t.Fatalf("%d VC terms taken again in 120 folds: none, or every one every time", terms)
			}
			switch {
			case tc.name == "multi-strobe-write" && !strobed2:
				t.Fatal("no buffer write ever strobed two VCs")
			case tc.name == "garbage-read" && !garbage:
				t.Fatal("no read strobe ever hit an empty buffer")
			case tc.name == "non-atomic-restart" && !restarted:
				t.Fatal("no header ever sat behind a departing tail")
			}
			for i, f := range tc.faults {
				if g.r.plane.FiredAt(i) < 0 {
					t.Errorf("fault %v never fired", &f)
				}
			}
		})
	}
}

// TestCloneCompletesTheFoldCache: CloneInto hands its copy a fold cache
// that is complete — the terms its source had taken travel, the rest the
// copy takes from its own registers — whatever the target held and however
// stale the target's own cache was, and writes nothing of its source, which
// other goroutines may be cloning or folding. The copy then folds without a
// write (the §3.2 rule the race test in internal/statehash holds a shared
// snapshot to) and to the rebuilt value.
func TestCloneCompletesTheFoldCache(t *testing.T) {
	src, other := newRig(t, nil), newRig(t, nil)
	trs, tro := newTraffic(src), newTraffic(other)
	var dst *Router
	for round := 0; round < 30; round++ {
		for i := 0; i <= round%4; i++ {
			trs.cycle(4)
			tro.cycle(3)
		}
		if round%3 == 0 {
			src.r.FoldState(statehash.Seed) // some clones find the source's cache complete
		}
		switch round % 3 {
		case 0:
			dst = nil // a fresh target
		case 1:
			dst = other.r.CloneInto(dst, nil, nil) // a used one, its cache complete, of other contents
		default:
			// A dirty one: stepped since its last fold, every level stale.
			for c := src.cycle; c < src.cycle+3; c++ {
				dst.BeginCycle(c)
				dst.Evaluate(c)
			}
			if dst.portDirty == 0 {
				t.Fatal("stepping the target left its cache clean")
			}
		}
		before := [...]any{src.r.vcTerms, src.r.foldDirty, src.r.portTerms, src.r.portDirty, src.r.fold}
		dst = src.r.CloneInto(dst, nil, nil)
		if after := [...]any{src.r.vcTerms, src.r.foldDirty, src.r.portTerms, src.r.portDirty, src.r.fold}; after != before {
			t.Fatalf("round %d: CloneInto wrote its source's fold cache", round)
		}
		if dst.portDirty != 0 || dst.foldDirty != [P]uint32{} {
			t.Fatalf("round %d: CloneInto left the copy's cache incomplete (ports %05b, VCs %v)", round, dst.portDirty, dst.foldDirty)
		}
		kept := [...]any{dst.vcTerms, dst.portTerms, dst.fold}
		got := dst.FoldState(statehash.Seed)
		if [...]any{dst.vcTerms, dst.portTerms, dst.fold} != kept {
			t.Fatalf("round %d: folding a clone product wrote it", round)
		}
		if want := rebuiltFold(dst); got != want {
			t.Fatalf("round %d: the copy folds to %#x from the cache it was handed, to %#x rebuilt", round, got, want)
		}
		if want := src.r.FoldState(statehash.Seed); got != want {
			t.Fatalf("round %d: the copy folds to %#x, its source to %#x", round, got, want)
		}
	}
}

// TestPortWordsPackLosslessly: the output-side registers go into the fold
// packed (portWord, and the credit words of foldOutputs), and two register
// files that differ in any one packed field must fold differently. For
// portWord every live field is run through every value its register can
// hold, against two backgrounds of the other fields: the values must give
// different words, the bits a field moves must not depend on the
// background, and no two fields may move the same bit — so the word is the
// live registers, rearranged. The SA1 winner latch is live only while a
// read enable is latched: it is run with one latched in both backgrounds,
// and held at zero in every other field's, where the flags run through all
// their values, read enable included. The residue must move no bit: the
// VA1 winner latch, and the SA1 one with no read enable. The credit word of the default configuration (four output VCs, a
// three-bit counter and two flag bits each) is small enough to run through
// every register file there is.
func TestPortWordsPackLosslessly(t *testing.T) {
	cfg := Default(topology.NewMesh(3, 3))
	r := New(4, &cfg, nil)
	const p = int(topology.East)
	st := &r.st
	i32 := func(reg []int32) func(int) { return func(x int) { reg[p] = int32(x) } }
	type field struct {
		name   string
		set    func(int)
		lo, hi int  // legal values, inclusive
		gated  bool // read by ST only under a latched read enable
	}
	fields := []field{
		{"SA1Win", i32(st.SA1Win), 0, MaxVCs - 1, true},
		{"VA1Next", i32(st.VA1Next), 0, MaxVCs - 1, false},
		{"SA1Next", i32(st.SA1Next), 0, MaxVCs - 1, false},
		{"VA2Next", i32(st.VA2Next), 0, P - 1, false},
		{"SA2Next", i32(st.SA2Next), 0, P - 1, false},
		{"StOut", i32(st.StOut), -1, P - 1, false},
		{"StFlags", func(x int) { st.StFlags[p] = uint8(x) }, 0, int(soa.StReadEn | soa.StSpec), false},
		{"StCol", func(x int) { st.StCol[p] = uint32(x) }, 0, 1<<P - 1, false},
		{"CreditIn", func(x int) { st.CreditIn[p] = uint32(x) }, 0, 1<<MaxVCs - 1, false},
		{"arriving", func(x int) {
			if r.arriving[p] = nil; x == 1 {
				r.arriving[p] = &flit.Flit{}
			}
		}, 0, 1, false},
	}
	// background sets every field to its lowest or its highest value, but a
	// gated one, which stays at its lowest.
	background := func(high bool) {
		for _, f := range fields {
			if f.set(f.lo); high && !f.gated {
				f.set(f.hi)
			}
		}
	}
	moves := make([]uint64, len(fields))
	for fi, f := range fields {
		var deltas [2][]uint64
		for b, high := range []bool{false, true} {
			background(high)
			if f.gated {
				st.StFlags[p] |= soa.StReadEn
			}
			f.set(f.lo)
			base := r.portWord(p)
			seen := map[uint64]int{}
			for x := f.lo; x <= f.hi; x++ {
				f.set(x)
				w := r.portWord(p)
				if y, dup := seen[w]; dup {
					t.Fatalf("%s = %d and %s = %d pack to the same word %#x", f.name, y, f.name, x, w)
				}
				seen[w] = x
				deltas[b] = append(deltas[b], w^base)
				moves[fi] |= w ^ base
			}
		}
		for k := range deltas[0] {
			if deltas[0][k] != deltas[1][k] {
				t.Fatalf("%s: the bits its value %d moves depend on the other fields (%#x, %#x)", f.name, f.lo+k, deltas[0][k], deltas[1][k])
			}
		}
	}
	for a := range fields {
		for b := a + 1; b < len(fields); b++ {
			if moves[a]&moves[b] != 0 {
				t.Fatalf("%s and %s share bits %#x of the port word", fields[a].name, fields[b].name, moves[a]&moves[b])
			}
		}
	}
	background(true)
	for _, readEn := range []uint8{0, soa.StReadEn} {
		st.StFlags[p] = readEn | soa.StSpec
		st.VA1Win[p], st.SA1Win[p] = 0, 0
		base := r.portWord(p)
		for x := int32(0); x < MaxVCs; x++ {
			st.VA1Win[p] = x
			if r.portWord(p) != base {
				t.Fatalf("the VA1 winner latch moves the port word (read enable %d)", readEn)
			}
			st.SA1Win[p] = x
			if moved := r.portWord(p) != base; moved != (readEn != 0 && x != 0) {
				t.Fatalf("SA1 winner latch %d with read enable %d: the port word moved %t", x, readEn, moved)
			}
			st.VA1Win[p], st.SA1Win[p] = 0, 0
		}
	}

	// Every file of credit counters and flags of one port, exhaustively.
	if cfg.VCs != 4 || r.crMask != 7 {
		t.Fatalf("the default configuration has %d VCs and credit counters of mask %#x; the enumeration below is for 4 and 7", cfg.VCs, r.crMask)
	}
	background(false)
	seen := make(map[uint64]uint32, 1<<20)
	base := p * st.V
	for file := uint32(0); file < 1<<20; file++ {
		for v := 0; v < 4; v++ {
			x := file >> (5 * v)
			st.Credits[base+v], st.OutFlags[base+v] = int32(x&7), uint8(x>>3&3)
		}
		h := r.foldOutputs(p, statehash.Seed)
		if other, dup := seen[h]; dup {
			t.Fatalf("credit register files %#x and %#x fold alike", other, file)
		}
		seen[h] = file
	}

	// A configuration whose counters do not fit one word a port: eight
	// VCs of seven-bit counters, nine bits a VC, seven to a word.
	wide := Default(topology.NewMesh(3, 3))
	wide.VCs, wide.BufDepth = MaxVCs, 100
	rw := New(4, &wide, nil)
	folds := map[uint64]string{}
	for v := 0; v < wide.VCs; v++ {
		for bit := 0; bit < 9; bit++ {
			i := p*rw.st.V + v
			cr, fl := rw.st.Credits[i], rw.st.OutFlags[i]
			if bit < 7 {
				rw.st.Credits[i] ^= 1 << bit
			} else {
				rw.st.OutFlags[i] ^= 1 << (bit - 7)
			}
			h := rw.foldOutputs(p, statehash.Seed)
			what := fmt.Sprintf("VC %d bit %d", v, bit)
			if other, dup := folds[h]; dup {
				t.Fatalf("flipping %s and flipping %s of the wide credit file fold alike", other, what)
			}
			folds[h] = what
			rw.st.Credits[i], rw.st.OutFlags[i] = cr, fl
		}
	}
	if h := rw.foldOutputs(p, statehash.Seed); folds[h] != "" {
		t.Fatalf("flipping %s of the wide credit file folds like flipping nothing", folds[h])
	}
}
