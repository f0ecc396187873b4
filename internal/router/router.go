package router

import (
	"fmt"

	"nocalert/internal/bitvec"
	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/soa"
	"nocalert/internal/topology"
)

// CreditOut is a credit the router returns upstream after draining one
// buffer slot of input port Port, virtual channel VC. The network
// delivers it to the upstream router's matching output port (or to the
// local network interface) with one cycle of latency.
type CreditOut struct {
	Port topology.Direction
	VC   int
}

// Router is one five-stage pipelined NoC router. Its architectural
// registers live in a structure-of-arrays window (st, see internal/soa)
// shared with the whole network; the struct itself keeps only the
// pointer-typed residue (flit buffers, read/write latches, per-cycle
// staging). All mutable state is reachable from the struct plus the
// window and deep-copied by Clone, which is what lets fault campaigns
// fork thousands of runs from one warmed network.
type Router struct {
	id   int
	x, y int
	cfg  *Config

	// crMask and vcClass cache 1<<BitsFor(BufDepth)-1 and ClassOfVC —
	// both consulted for every VC every cycle, and cheap enough to
	// precompute once in New rather than re-derive (BitsFor and the
	// ClassOfVC divisions showed up in campaign profiles).
	crMask  int32
	vcClass [MaxVCs]int

	// ports is the set of ports the router has, fixed by its place in the
	// mesh; vcMask is bitvec.Mask(VCs).
	ports, vcMask bitvec.Vec
	in            [P]inputPort

	// st is this router's window into the flat register file: VC status
	// tables, credit counters, ST latches, arbiter priority pointers and
	// the NonIdle/Occupied masks the fast sweeps iterate.
	st soa.View

	plane *fault.Plane
	// planeLive caches plane.LiveFor(cycle, id) for the current cycle (set
	// in BeginCycle) so the 20+ per-cycle fault consults cost one branch
	// when this router's own fault window is closed — which, for a router
	// that hosts no fault, is always.
	planeLive bool
	// sweepRef forces the reference full-VC-range sweeps in SA/VA/RC
	// (the -no-soa engine); fastSweep, recomputed each BeginCycle, is
	// true when the mask-driven sparse sweeps are in effect this cycle.
	// The two engines share storage and per-register semantics — only
	// the iteration sets differ, and the masks make them provably equal.
	sweepRef  bool
	fastSweep bool
	// quiet, set by BeginUnobserved on a fast sweep, makes the cycle write
	// of its signal record only what a sim.SignalsOnly monitor and the
	// links read: Router, Cycle, Departures, the four arbiter banks and
	// Granted (and the Credits). The rest of the record is stale.
	quiet bool
	// preDirty[p] has bit v set when a snapshot-visible register of input
	// VC (p,v) was written since the last BeginCycle: the sparse snapshot
	// fill refreshes those entries and the occupied ones, and no other.
	// preFull makes the next fill a full one instead: set wherever an
	// entry may differ from its registers with no write to show for it —
	// a fresh router or CloneInto target (the snapshot is not cloned),
	// every cycle the sweep was not fast (inside the router's own fault
	// window the snapshot is shown faulted reads, which are not what is
	// stored) and every cycle no snapshot was taken (BeginUnobserved).
	preDirty [P]uint32
	preFull  bool
	// routing[p] and waitVA[p] have bit v set while input VC (p,v)'s state
	// register holds VCRouting and VCWaitingVA: kept by setVCState beside
	// the NonIdle mask, they are what RC and VA1 serve on a fast sweep.
	// held has bit p set while input port p holds a packet or a flit (its
	// NonIdle or Occupied mask is not zero), kept by setVCState, push and
	// pop.
	routing, waitVA [P]uint32
	held            bitvec.Vec
	// foldDirty and portDirty say what of the fold cache, below, a write has
	// left stale.
	foldDirty [P]uint32
	portDirty uint32

	// Per-cycle staging filled by the network before Evaluate.
	arriving [P]*flit.Flit

	// The ports phaseBW and phaseST have work at, kept where the registers
	// they stand for are written: staged has bit p set while port p holds a
	// staged flit or credit (arriving, CreditIn), latchedRows while input p
	// holds SA2's read enable (StFlags), latchedCols while output o holds
	// its crossbar column (StCol).
	staged, latchedRows, latchedCols bitvec.Vec

	sig        Signals
	creditsOut []CreditOut
	// targets backs every Arrival.Targets of the cycle (writeFlit), emptied
	// by BeginCycle like the rest of the signal record.
	targets []WriteTarget

	// The fold cache (fingerprint.go), three levels, each good until a
	// write to what it covers. vcTerms[p][v] is input VC (p,v)'s term of the
	// state fold, stale while bit v of foldDirty[p] is set: setVCState, push,
	// pop and a register upset set it (wrote). portTerms[p] is port p's — its
	// VCs' terms, its output-side registers, the flit staged on it — stale
	// while bit p of portDirty is set: wrote sets it, and so do every phase
	// that finds something to do at the port and every staging into it
	// (touch). fold is the router's, good while portDirty is zero. A VC
	// nobody folds (16 000 warm-up cycles between two fingerprints) is never
	// hashed, and a router folded every cycle pays for the ports and VCs the
	// cycle wrote. The terms sit together, a port's VCs a cache line, because
	// a fold of the port reads them all, and behind everything a step reads.
	// refolds and termFolds count the folds that found the router written
	// and the VC terms they took again.
	vcTerms            [P][MaxVCs]uint64
	portTerms          [P]uint64
	fold               uint64
	refolds, termFolds int64
}

// New constructs a standalone router for node id of the configured mesh,
// backed by a private single-router SoA state. The plane may be nil for
// fault-free operation. Networks bind their routers to one shared state
// via NewInState instead; the lone router serves tests (router's own,
// sim's niRig, forever's TestAllocationComparatorRules).
func New(id int, cfg *Config, plane *fault.Plane) *Router {
	st := soa.NewState(soa.Layout{R: 1, P: P, V: cfg.VCs})
	return NewInState(id, cfg, plane, st.View(0))
}

// NewInState constructs the router for node id bound to the given SoA
// window (st must be the router's own view of a state sized for this
// configuration).
func NewInState(id int, cfg *Config, plane *fault.Plane, st soa.View) *Router {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("router: %v", err))
	}
	if st.P != P || st.V != cfg.VCs {
		panic(fmt.Sprintf("router: state window %dx%d does not fit config %dx%d", st.P, st.V, P, cfg.VCs))
	}
	r := &Router{id: id, cfg: cfg, plane: plane, st: st}
	r.x, r.y = cfg.Mesh.Coords(id)
	r.crMask = int32(1<<fault.BitsFor(cfg.BufDepth) - 1)
	r.vcMask = bitvec.Mask(cfg.VCs)
	for v := 0; v < cfg.VCs; v++ {
		r.vcClass[v] = cfg.ClassOfVC(v)
	}
	for d := topology.North; d < topology.NumPorts; d++ {
		p := int(d)
		if !cfg.Mesh.HasPort(id, d) {
			continue
		}
		r.ports = r.ports.Set(p)
		r.in[p].vcs = make([]inVC, cfg.VCs)
		for v := range r.in[p].vcs {
			r.resetVC(p, v)
			vc := &r.in[p].vcs[v]
			vc.slots = make([]slot, cfg.BufDepth)
			vc.buf = vc.slots[:0]
			i := p*st.V + v
			st.Credits[i] = int32(cfg.BufDepth)
			st.OutFlags[i] = soa.OutFree
		}
	}
	for p := 0; p < P; p++ {
		st.StOut[p] = -1
	}
	r.sig.Pre.init(cfg)
	r.preFull = true
	return r
}

// NewCloneTarget returns an empty router shell bound to the given SoA
// window, suitable only as a CloneInto destination. Networks use it to
// pre-bind a fork target's routers to the fork's shared state.
func NewCloneTarget(cfg *Config, st soa.View) *Router {
	c := &Router{cfg: cfg, st: st, preFull: true}
	c.sig.Pre.init(cfg)
	return c
}

func (pre *Pre) init(cfg *Config) {
	for p := 0; p < P; p++ {
		pre.In[p] = make([]PreVC, cfg.VCs)
	}
}

// ID returns the router's node id.
func (r *Router) ID() int { return r.id }

// SetReferenceSweep selects the reference engine: full VC-range sweeps
// every cycle instead of the mask-driven sparse sweeps. The two engines
// produce identical behaviour — the CI identity gate proves it — so this
// exists as the -no-soa escape hatch and as the lockstep test's baseline.
func (r *Router) SetReferenceSweep(on bool) { r.sweepRef = on }

// Signals returns the current cycle's signal record. The record is
// valid until the next BeginCycle.
func (r *Router) Signals() *Signals { return &r.sig }

// Credits returns the credits emitted by the last Evaluate.
func (r *Router) Credits() []CreditOut { return r.creditsOut }

// StageArrival presents a flit on input port d; it is consumed by the
// next Evaluate. Staging two flits on one port in one cycle is a
// protocol violation by the caller and panics.
func (r *Router) StageArrival(d topology.Direction, f *flit.Flit) {
	p := int(d)
	if r.arriving[p] != nil {
		panic(fmt.Sprintf("router %d: two flits staged on port %s in one cycle", r.id, d))
	}
	r.arriving[p] = f
	r.staged |= 1 << uint(p)
	r.touch(p)
}

// StageCredit presents a returning credit for VC vc of output port d.
func (r *Router) StageCredit(d topology.Direction, vc int) {
	r.st.CreditIn[int(d)] |= 1 << uint(vc)
	r.staged |= 1 << uint(d)
	r.touch(int(d))
}

// Inert reports whether stepping this router would change no state and
// produce an all-vacuous signal record: every VC idle and empty, no
// crossbar reservation or read enable pending, no staged arrivals or
// credits. The check is one OR of four port masks.
// Only meaningful outside the router's own fault window — a live fault
// can perturb even an idle router, but only the router that hosts it —
// and a skipped router's per-cycle staging (Signals, Credits) goes stale,
// so the network must skip its link-traversal and monitor visits too.
func (r *Router) Inert() bool {
	return r.staged|r.latchedRows|r.latchedCols|r.held == 0
}

// ---- SoA register helpers ----

// iv returns the flat index of (port, vc) in the per-(port,vc) arrays.
func (r *Router) iv(p, v int) int { return p*r.st.V + v }

// setVCState writes the state register and maintains the NonIdle mask —
// the single funnel for every state transition, which is what keeps the
// mask exact for the sparse sweeps and the inert check. Every write to
// one of a VC's other status registers (route, outVC, pktID, arrived)
// happens beside a call of this or of push, which is what lets preDirty
// and foldDirty be kept in these funnels alone (wrote).
func (r *Router) setVCState(p, v int, s VCState) {
	r.st.VCState[r.iv(p, v)] = uint8(s)
	r.wrote(p, v)
	bit := uint32(1) << uint(v)
	if s == VCIdle {
		r.st.NonIdle[p] &^= bit
	} else {
		r.st.NonIdle[p] |= bit
	}
	r.routing[p] &^= bit
	r.waitVA[p] &^= bit
	switch s {
	case VCRouting:
		r.routing[p] |= bit
	case VCWaitingVA:
		r.waitVA[p] |= bit
	}
	r.noteHeld(p)
}

// noteHeld brings port p's bit of held up to its NonIdle and Occupied
// masks.
func (r *Router) noteHeld(p int) {
	if r.st.NonIdle[p]|r.st.Occupied[p] != 0 {
		r.held |= 1 << uint(p)
	} else {
		r.held &^= 1 << uint(p)
	}
}

// wrote notes a write to input VC (p,v): its snapshot entry and its fold
// term are stale, and its port's.
func (r *Router) wrote(p, v int) {
	r.preDirty[p] |= 1 << uint(v)
	r.foldDirty[p] |= 1 << uint(v)
	r.touch(p)
}

// touch notes a write to port p's output-side registers or staging: the
// port's fold term is stale.
func (r *Router) touch(p int) { r.portDirty |= 1 << uint(p) }

// resetVC returns the VC status registers to their free-VC values.
func (r *Router) resetVC(p, v int) {
	i := r.iv(p, v)
	r.setVCState(p, v, VCIdle)
	r.st.VCRoute[i] = rawInvalidDir
	r.st.VCOutVC[i] = 0
	r.st.PktID[i] = 0
	r.st.Arrived[i] = 0
}

// push appends a flit to (p,v)'s buffer and maintains the write latch
// and the Occupied mask; the caller has already checked capacity policy
// (an overflowing write drops the flit instead).
func (r *Router) push(p, v int, f *flit.Flit) {
	vc := &r.in[p].vcs[v]
	if len(vc.buf) == cap(vc.buf) {
		n := copy(vc.slots, vc.buf)
		clear(vc.slots[n:])
		vc.buf = vc.slots[:n]
	}
	vc.buf = append(vc.buf, slot{f: f})
	vc.written.set(f)
	r.st.Occupied[p] |= 1 << uint(v)
	r.held |= 1 << uint(p)
	r.wrote(p, v)
}

// pop removes and returns (p,v)'s head flit, maintaining the read latch
// and the Occupied mask. On an empty buffer it returns a clone of the
// stale read latch (garbage read) or nil if nothing was ever read.
func (r *Router) pop(p, v int) (f *flit.Flit, garbage bool) {
	vc := &r.in[p].vcs[v]
	if len(vc.buf) == 0 {
		if !vc.read.valid() {
			return nil, true
		}
		g := vc.read.value()
		return &g, true
	}
	f = vc.buf[0].f
	vc.buf[0] = slot{}
	vc.buf = vc.buf[1:]
	if len(vc.buf) == 0 {
		vc.buf = vc.slots[:0]
		r.st.Occupied[p] &^= 1 << uint(v)
		r.noteHeld(p)
	}
	r.wrote(p, v)
	vc.read.set(f)
	return f, false
}

// ---- faulted register read path ----

// fWord and fVec are the plane consults every signal read goes through.
// planeLive (recomputed once per cycle in BeginCycle) short-circuits
// them to a plain read wherever the plane would answer "no fault" anyway:
// every consult names this router, so outside the window of the faults
// it hosts itself — on every cycle, for a router that hosts none — the
// mask is zero by construction. Campaign runs spend thousands of cycles
// per single-cycle fault and 63 routers of 64 beside an armed one, so
// this branch is the plane's real fast path.

func (r *Router) fWord(cycle int64, kind fault.Kind, port, vc, value int) int {
	if !r.planeLive {
		return value
	}
	return r.plane.Word(cycle, r.id, kind, port, vc, value)
}

func (r *Router) fVec(cycle int64, kind fault.Kind, port, vc int, value uint32) uint32 {
	if !r.planeLive {
		return value
	}
	return r.plane.Vec(cycle, r.id, kind, port, vc, value)
}

// The four register readers below each split into a thin wrapper and
// an outlined fault path: the wrapper is small enough to inline into
// the phase loops, and on the overwhelming majority of cycles — this
// router's fault window closed — it reduces to a plain array load. The
// raw reads skip the readers' masks, which is safe because every write
// site stores masked values (see applyRegisterUpsets and the phase code).

func (r *Router) vcStateR(cycle int64, p, v int) VCState {
	if r.planeLive {
		return r.vcStateFaulted(cycle, p, v)
	}
	return VCState(r.st.VCState[p*r.st.V+v])
}

//go:noinline
func (r *Router) vcStateFaulted(cycle int64, p, v int) VCState {
	raw := r.plane.Word(cycle, r.id, fault.VCStateReg, p, v, int(r.st.VCState[r.iv(p, v)]))
	return VCState(raw & 7)
}

func (r *Router) vcRouteR(cycle int64, p, v int) int {
	if r.planeLive {
		return r.vcRouteFaulted(cycle, p, v)
	}
	return int(r.st.VCRoute[p*r.st.V+v])
}

//go:noinline
func (r *Router) vcRouteFaulted(cycle int64, p, v int) int {
	return r.plane.Word(cycle, r.id, fault.VCRouteReg, p, v, int(r.st.VCRoute[r.iv(p, v)])) & (1<<DirWidth - 1)
}

func (r *Router) vcOutVCR(cycle int64, p, v int) int {
	if r.planeLive {
		return r.vcOutVCFaulted(cycle, p, v)
	}
	return int(r.st.VCOutVC[p*r.st.V+v])
}

//go:noinline
func (r *Router) vcOutVCFaulted(cycle int64, p, v int) int {
	return r.plane.Word(cycle, r.id, fault.VCOutVCReg, p, v, int(r.st.VCOutVC[r.iv(p, v)])) & (MaxVCs - 1)
}

func (r *Router) creditR(cycle int64, o, v int) int {
	if r.planeLive {
		return r.creditFaulted(cycle, o, v)
	}
	return int(r.st.Credits[o*r.st.V+v])
}

//go:noinline
func (r *Router) creditFaulted(cycle int64, o, v int) int {
	return r.plane.Word(cycle, r.id, fault.CreditCountReg, o, v, int(r.st.Credits[r.iv(o, v)])) & int(r.crMask)
}

// ---- cycle evaluation ----

// BeginCycle starts cycle t: single-event upsets scheduled for this
// cycle are applied to the storage elements, and the pre-cycle
// architectural snapshot is taken (through the faulted read path, the
// same view the hardware checkers have).
//
// A fast sweep snapshots only the VCs that hold a packet or a flit
// (NonIdle|Occupied) and those written since the last snapshot
// (preDirty), which covers the ones that have just gone free. Every other
// entry is a free, empty VC's whose registers nothing has written since
// the entry was filled, so it already holds what filling it again would
// write.
//
// planeLive is this router's own fault window (fault.Plane.LiveFor), not
// the plane's: a fault armed in another router leaves this one on the
// fast sweep with the sparse fill.
func (r *Router) BeginCycle(cycle int64) { r.beginCycle(cycle, true) }

// BeginUnobserved is BeginCycle for a cycle whose record is shown to
// nobody but readers of its arbiter banks (sim.SignalsOnly) and the links,
// which read its departures and credits. On a fast sweep the cycle is
// quiet: it takes no snapshot — Pre keeps whatever it held, and preFull
// makes the next BeginCycle fill every entry, as after a clone — and its
// phases write nothing else of the record (Router.quiet). Off the fast
// sweep the cycle is BeginCycle's: the reference engine fills every
// snapshot and record, and inside the router's own fault window the
// fill's consults are what mark a fault on an idle register fired.
func (r *Router) BeginUnobserved(cycle int64) { r.beginCycle(cycle, false) }

func (r *Router) beginCycle(cycle int64, observed bool) {
	r.planeLive = r.plane.LiveFor(cycle, r.id)
	r.fastSweep = !r.sweepRef && !r.planeLive
	r.quiet = !observed && r.fastSweep
	r.applyRegisterUpsets(cycle)
	r.creditsOut = r.creditsOut[:0]
	if r.quiet {
		r.sig.resetQuiet(r.id, cycle)
		// No snapshot: the record of what was written since the last one
		// goes with it, and the next one starts over.
		r.preDirty = [P]uint32{}
		r.preFull = true
		return
	}
	r.sig.reset(r.id, cycle)
	r.targets = r.targets[:0]
	full := r.preFull || !r.fastSweep
	r.preFull = !r.fastSweep
	for w := r.ports; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		var act bitvec.Vec
		if full {
			for v := range r.in[p].vcs {
				if r.snapshotVC(cycle, p, v) {
					act = act.Set(v)
				}
				if r.planeLive {
					// The credit counters are not part of the snapshot, but a
					// hardware checker's tap on one is a read like any other:
					// consulting the plane here is what marks a credit-counter
					// fault on a quiet output as fired.
					r.creditFaulted(cycle, p, v)
				}
			}
		} else {
			for w := bitvec.Vec(r.st.NonIdle[p] | r.st.Occupied[p] | r.preDirty[p]); !w.IsZero(); {
				var v int
				v, w = w.NextBit()
				if r.snapshotVC(cycle, p, v) {
					act = act.Set(v)
				}
			}
		}
		r.sig.Pre.Active[p] = act
		r.preDirty[p] = 0
	}
}

// snapshotVC fills Pre.In[p][v] in place (building a PreVC on the stack
// and copying it was the single hottest line in campaign profiles) and
// reports whether the entry is active. Activity is computed from the
// snapshot values themselves (post-fault), so the checkers' sparse sweep
// over the mask is exact even when a faulted read dresses up an idle VC.
func (r *Router) snapshotVC(cycle int64, p, v int) bool {
	vc := &r.in[p].vcs[v]
	pv := &r.sig.Pre.In[p][v]
	pv.State = r.vcStateR(cycle, p, v)
	pv.Route = r.vcRouteR(cycle, p, v)
	pv.OutVC = r.vcOutVCR(cycle, p, v)
	pv.BufLen = len(vc.buf)
	if h := vc.head(); h != nil {
		pv.HasHead = true
		pv.HeadKind = h.Kind
		pv.Class = h.Class
	} else {
		pv.HasHead = false
		pv.HeadKind = 0
		pv.Class = r.vcClass[v]
	}
	return pv.State != VCIdle || pv.BufLen > 0
}

func (r *Router) applyRegisterUpsets(cycle int64) {
	// A flip matches on this router's id at the fault's own cycle, which
	// is inside this router's window by construction.
	if !r.planeLive {
		return
	}
	for _, f := range r.plane.TransientRegisterFlips(cycle, r.id) {
		s := f.Site
		if s.Port < 0 || s.Port >= P || !r.ports.Get(s.Port) {
			continue
		}
		if s.VC < 0 || s.VC >= r.cfg.VCs {
			continue
		}
		bit := 1 << uint(f.Bit)
		i := r.iv(s.Port, s.VC)
		switch s.Kind {
		case fault.VCStateReg:
			r.setVCState(s.Port, s.VC, VCState((int(r.st.VCState[i])^bit)&7))
		case fault.VCRouteReg:
			r.st.VCRoute[i] = uint8((int(r.st.VCRoute[i]) ^ bit) & (1<<DirWidth - 1))
			r.wrote(s.Port, s.VC)
		case fault.VCOutVCReg:
			r.st.VCOutVC[i] = uint8((int(r.st.VCOutVC[i]) ^ bit) & (MaxVCs - 1))
			r.wrote(s.Port, s.VC)
		case fault.CreditCountReg:
			// (The port is marked stale by this cycle's arbitration rounds:
			// inside the router's fault window every one of them runs.)
			r.st.Credits[i] = (r.st.Credits[i] ^ int32(bit)) & r.crMask
		}
	}
}

// CreditStep is the whole of a quiet cycle (BeginUnobserved) whose only
// work is staged credit returns: no flit staged, no crossbar row or column
// latched, every VC idle and empty. It absorbs the credits — phaseBW's
// credit loop, all that Evaluate would have done — and reports true: the
// cycle departs nothing, returns no credit and grants nothing, so its
// record needs no reader, and the router is Inert. Otherwise it does
// nothing and reports false, and the caller runs Evaluate.
func (r *Router) CreditStep(cycle int64) bool {
	if !r.quiet || r.latchedRows|r.latchedCols|r.held != 0 {
		return false
	}
	for w := r.staged; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		if r.arriving[p] != nil {
			return false
		}
	}
	r.phaseBW(cycle)
	return true
}

// Evaluate runs one cycle of the router pipeline. Phases execute in an
// order that gives each flit at most one stage per cycle: buffer writes
// and credit returns first (folded into the RC stage as in GARNET's
// BW/RC stage), then crossbar traversal of last cycle's switch grants,
// then SA, VA and RC. Departures are exposed via Signals().Departures
// and credits via Credits().
//
// On a fast sweep each phase visits only the ports and VCs that have work
// (DESIGN.md §3.1): BW the staged ports, ST the latched rows and columns,
// SA1 the ports with a buffered flit in a non-idle VC, VA1 and RC the ports
// with a VC waiting for them and those VCs alone, SA2 and VA2 the outputs
// the first round's winners request. The reference sweep, and a router
// inside its own fault window, visit every port it has and every VC.
func (r *Router) Evaluate(cycle int64) {
	r.phaseBW(cycle)
	r.phaseST(cycle)
	// The candidates of SA1, VA1 and RC are taken once BW and ST have run:
	// SA moves no VC's state, VA turns waiting VCs active, and RC, last,
	// serves the routing ones, which neither SA nor VA writes.
	sa, va, rc := r.ports, r.ports, r.ports
	if r.fastSweep {
		sa, va, rc = 0, 0, 0
		for w := r.held; !w.IsZero(); {
			var p int
			p, w = w.NextBit()
			bit := bitvec.Vec(1) << uint(p)
			if r.st.NonIdle[p]&r.st.Occupied[p] != 0 {
				sa |= bit
			}
			if r.waitVA[p] != 0 {
				va |= bit
			}
			if r.routing[p] != 0 {
				rc |= bit
			}
		}
	}
	r.phaseSA(cycle, sa)
	r.phaseVA(cycle, va)
	r.phaseRC(cycle, rc)
}

// phaseBW latches arriving flits into VC buffers and absorbs returning
// credits.
func (r *Router) phaseBW(cycle int64) {
	for w := r.sweep(r.staged, r.ports); !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		if f := r.arriving[p]; f != nil {
			r.arriving[p] = nil
			r.touch(p)
			if r.quiet {
				r.writeQuiet(p, f)
			} else {
				r.writeFlit(cycle, p, f)
			}
		}
		staged := r.st.CreditIn[p]
		cin := r.fVec(cycle, fault.CreditSig, p, -1, staged)
		r.st.CreditIn[p] = 0
		vec := bitvec.Vec(cin) & r.vcMask
		if !r.quiet {
			r.sig.CreditsIn[p] = vec
		}
		if staged|uint32(vec) != 0 {
			r.touch(p) // the staged vector went, or a counter below moves
		}
		base := p * r.st.V
		for w := vec; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			i := base + v
			r.st.Credits[i] = (r.st.Credits[i] + 1) & r.crMask
			fl := r.st.OutFlags[i]
			if fl&soa.OutTailSent != 0 && fl&soa.OutFree == 0 && int(r.st.Credits[i]) >= r.cfg.BufDepth {
				// Wormhole fully drained downstream: recycle the VC.
				r.st.OutFlags[i] = (fl | soa.OutFree) &^ soa.OutTailSent
			}
		}
	}
	r.staged = 0
}

func (r *Router) writeFlit(cycle int64, p int, f *flit.Flit) {
	kindRaw := r.fWord(cycle, fault.FlitKindIn, p, -1, int(f.Kind)) & 3
	f.Kind = flit.Kind(kindRaw)
	vcRaw := r.fWord(cycle, fault.FlitVCIn, p, -1, f.VC) & (MaxVCs - 1)
	f.VC = vcRaw
	var strobe bitvec.Vec
	if vcRaw < r.cfg.VCs {
		strobe = strobe.Set(vcRaw)
	}
	strobe = bitvec.Vec(r.fVec(cycle, fault.BufWrite, p, -1, uint32(strobe))) & r.vcMask
	arr := Arrival{Port: p, Kind: f.Kind, VCField: vcRaw, Strobe: strobe, Flit: f}
	first := len(r.targets)
	i := -1
	for w := strobe; !w.IsZero(); {
		var v int
		v, w = w.NextBit()
		i++
		vc := &r.in[p].vcs[v]
		t := WriteTarget{
			VC:          v,
			FullBefore:  vc.full(r.cfg.BufDepth),
			StateBefore: r.vcStateR(cycle, p, v),
		}
		if vc.written.valid() {
			t.HasPrev = true
			t.PrevKind = vc.written.kind
		}
		if !t.FullBefore {
			stored := f
			if i > 0 {
				// A multi-strobe write (fault) latches copies into each
				// addressed buffer — spontaneous flit duplication.
				stored = f.Clone()
			}
			r.store(p, v, stored)
		}
		t.ArrivedAfter = int(r.st.Arrived[r.iv(p, v)])
		r.targets = append(r.targets, t)
	}
	// Capped, so that nobody's append to one arrival's targets can write
	// the next one's.
	arr.Targets = r.targets[first:len(r.targets):len(r.targets)]
	r.sig.Arrivals = append(r.sig.Arrivals, arr)
}

// writeQuiet is writeFlit on a quiet cycle: the router's fault window is
// closed, so every consult answers the value it is given and the strobe is
// the one VC the flit's field names; and nobody reads the Arrival, so none
// is built.
func (r *Router) writeQuiet(p int, f *flit.Flit) {
	f.Kind &= 3
	f.VC &= MaxVCs - 1
	if v := f.VC; v < r.cfg.VCs && !r.in[p].vcs[v].full(r.cfg.BufDepth) {
		r.store(p, v, f)
	}
}

// store latches f into input VC (p,v), which has room: the buffer and
// write latch, the arrival count, and for a header on a free VC the status
// registers of the packet it opens.
func (r *Router) store(p, v int, f *flit.Flit) {
	r.push(p, v, f)
	ri := r.iv(p, v)
	if !f.Kind.IsHead() {
		r.st.Arrived[ri]++
		return
	}
	r.st.Arrived[ri] = 1
	if VCState(r.st.VCState[ri]) == VCIdle {
		r.setVCState(p, v, VCRouting)
		r.st.PktID[ri] = f.PacketID
		r.st.VCRoute[ri] = rawInvalidDir
		r.st.VCOutVC[ri] = 0
	}
	// A header landing on a busy VC is an atomicity breach; the resident
	// wormhole's registers are left in place and the interloper mixes in
	// behind it.
}

// phaseST performs crossbar traversal for last cycle's switch grants:
// per-input read strobes pop the buffers, rows drive flits, and the
// (possibly faulted) column control vectors connect rows to outputs. Only a
// row SA2 latched a read enable on reads, on either sweep.
func (r *Router) phaseST(cycle int64) {
	var rowFlit [P]*flit.Flit
	var rowGarbage [P]bool
	var rows bitvec.Vec
	for w := r.latchedRows; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		intended := int(r.st.StOut[p])
		spec := r.st.StFlags[p]&soa.StSpec != 0
		r.st.StFlags[p] = 0
		r.st.StOut[p] = -1
		r.touch(p)

		vcSel := int(r.st.SA1Win[p])
		nullified := false
		if spec {
			// Commit check for a speculative grant: VA must have
			// completed and a credit must be available.
			st := r.vcStateR(cycle, p, vcSel)
			ovc := r.vcOutVCR(cycle, p, vcSel)
			if st != VCActive || ovc >= r.cfg.VCs || intended < 0 || r.creditR(cycle, intended, ovc) <= 0 {
				nullified = true
				if intended >= 0 && !r.quiet {
					r.sig.XbarSpecNull = r.sig.XbarSpecNull.Set(intended)
				}
			} else {
				i := r.iv(intended, ovc)
				r.st.Credits[i] = (r.st.Credits[i] - 1) & r.crMask
			}
		}
		var strobe bitvec.Vec
		if !nullified && vcSel < r.cfg.VCs {
			strobe = strobe.Set(vcSel)
		}
		strobe = bitvec.Vec(r.fVec(cycle, fault.BufRead, p, -1, uint32(strobe))) & r.vcMask
		var emptyBits bitvec.Vec
		var selFlit, firstFlit *flit.Flit
		var selGarbage, firstGarbage bool
		for w := strobe; !w.IsZero(); {
			var v int
			v, w = w.NextBit()
			if r.in[p].vcs[v].empty() {
				emptyBits = emptyBits.Set(v)
			}
			f, garbage := r.pop(p, v)
			if f == nil {
				continue // nothing was ever read from this buffer
			}
			f.VC = r.vcOutVCR(cycle, p, v)
			if !garbage {
				r.creditsOut = append(r.creditsOut, CreditOut{Port: topology.Direction(p), VC: v})
				if f.Kind.IsTail() {
					r.teardown(p, v, intended, f)
				}
			}
			if v == vcSel {
				selFlit, selGarbage = f, garbage
			} else if firstFlit == nil {
				firstFlit, firstGarbage = f, garbage
			}
		}
		if selFlit == nil {
			selFlit, selGarbage = firstFlit, firstGarbage
		}
		if selFlit != nil {
			rowFlit[p], rowGarbage[p] = selFlit, selGarbage
			rows = rows.Set(p)
		}
		if !r.quiet {
			r.sig.Reads[p] = ReadSig{Strobe: strobe, EmptyBits: emptyBits}
		}
	}

	var usedRows bitvec.Vec
	for w := r.sweep(r.latchedCols, r.ports); !w.IsZero(); {
		var o int
		o, w = w.NextBit()
		col := bitvec.Vec(r.st.StCol[o])
		if !col.IsZero() {
			// The column goes, and what the traversal above wrote of this
			// output's VCs — a committed speculative grant's credit, a
			// departed tail's flag — is marked with it: SA2 latched
			// StOut[p] = o together with bit p of this column.
			r.st.StCol[o] = 0
			r.touch(o)
		}
		col = bitvec.Vec(r.fVec(cycle, fault.XbarSel, o, -1, uint32(col))) & bitvec.Mask(P)
		if !r.quiet {
			r.sig.XbarCol[o] = col
		}
		took := false
		for w := col; !w.IsZero(); {
			var row int
			row, w = w.NextBit()
			if took || rowFlit[row] == nil {
				// A second connected row collides on the output bus (the
				// first wins); an empty row transmits nothing.
				continue
			}
			took = true
			f := rowFlit[row]
			if usedRows.Get(row) {
				// Two columns latched the same row: the flit fans out —
				// spontaneous duplication.
				f = f.Clone()
			}
			usedRows = usedRows.Set(row)
			r.sig.Departures = append(r.sig.Departures, Departure{
				OutPort: o, OutVC: f.VC, InPort: row, Flit: f, Garbage: rowGarbage[row],
			})
		}
	}
	r.latchedRows, r.latchedCols = 0, 0
	if !r.quiet {
		r.sig.XbarRows = rows
		r.sig.XbarIn = rows.Count()
		r.sig.XbarOut = len(r.sig.Departures)
	}
}

// teardown recycles an input VC after its tail flit departs.
func (r *Router) teardown(p, v, intendedOut int, tail *flit.Flit) {
	if intendedOut >= 0 && r.ports.Get(intendedOut) && tail.VC < r.cfg.VCs {
		r.st.OutFlags[r.iv(intendedOut, tail.VC)] |= soa.OutTailSent
	}
	if !r.cfg.AtomicVC {
		if h := r.in[p].vcs[v].head(); h != nil && h.Kind.IsHead() {
			// The next packet is already buffered; restart its pipeline.
			i := r.iv(p, v)
			r.setVCState(p, v, VCRouting)
			r.st.PktID[i] = h.PacketID
			r.st.VCRoute[i] = rawInvalidDir
			r.st.VCOutVC[i] = 0
			return
		}
	}
	r.resetVC(p, v)
}

// vacant reports that a first-round arbitration (SA1, VA1) over req may be
// skipped whole: nobody requests, and this router's fault window is closed,
// so nothing can conjure a request or a grant: the round would leave its
// signals at their reset zeros and its priority pointer where it is
// (rrArbitrate moves none on an empty request). The reference sweep, and a
// router inside its own fault window, run every round. A second round has
// nothing to skip: its outputs are the ones the winners request.
func (r *Router) vacant(req bitvec.Vec) bool { return r.fastSweep && req.IsZero() }

// sweep returns what a phase iterates: on a fast sweep the ports or VCs that
// have work (active, exact — see the phase comments), otherwise all of them.
func (r *Router) sweep(active, all bitvec.Vec) bitvec.Vec {
	if r.fastSweep {
		return active
	}
	return all
}

// phaseSA runs the separable switch allocation: SA1 picks one VC per
// input port (checking downstream credits), SA2 picks one input port
// per output port and latches the crossbar reservation for next cycle.
func (r *Router) phaseSA(cycle int64, busy bitvec.Vec) {
	var reqs [P]bitvec.Vec // SA2's, by output
	var outs, specWon bitvec.Vec
	for w := busy; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		var req bitvec.Vec
		var specBits bitvec.Vec
		// SA requests need a non-empty VC in the Active (or, speculatively,
		// WaitingVA) state: exactly the Occupied∩NonIdle mask when the
		// stored registers are the read values (no open fault window).
		for vs := r.sweep(bitvec.Vec(r.st.Occupied[p]&r.st.NonIdle[p]), r.vcMask); !vs.IsZero(); {
			var v int
			v, vs = vs.NextBit()
			if r.in[p].vcs[v].empty() {
				continue
			}
			st := r.vcStateR(cycle, p, v)
			switch {
			case st == VCActive:
				route := r.vcRouteR(cycle, p, v)
				if !r.ports.Get(route) {
					continue
				}
				ovc := r.vcOutVCR(cycle, p, v)
				if ovc >= r.cfg.VCs || r.creditR(cycle, route, ovc) <= 0 {
					continue
				}
				req = req.Set(v)
			case r.cfg.Speculative && st == VCWaitingVA:
				if !r.ports.Get(r.vcRouteR(cycle, p, v)) {
					continue
				}
				req = req.Set(v)
				specBits = specBits.Set(v)
			}
		}
		if r.vacant(req) {
			continue
		}
		r.touch(p) // the round moves the priority pointer and the winner latch
		req = bitvec.Vec(r.fVec(cycle, fault.SA1Req, p, -1, uint32(req))) & r.vcMask
		gnt := rrArbitrate(req, r.cfg.VCs, &r.st.SA1Next[p])
		gnt = bitvec.Vec(r.fVec(cycle, fault.SA1Gnt, p, -1, uint32(gnt))) & r.vcMask
		r.sig.SetArbiter(BankSA1, p, ReqGnt{Req: req, Gnt: gnt})
		if v := gnt.First(); v >= 0 {
			r.st.SA1Win[p] = int32(v)
			if specBits.Get(v) {
				specWon = specWon.Set(p)
			}
			// The winner requests, in SA2, the output its VC is routed to.
			if o := r.vcRouteR(cycle, p, v); r.ports.Get(o) {
				reqs[o] = reqs[o].Set(p)
				outs = outs.Set(o)
			}
		}
	}
	for w := r.sweep(outs, r.ports); !w.IsZero(); {
		var o int
		o, w = w.NextBit()
		r.touch(o) // the pointer, the column latch, a credit counter
		req := bitvec.Vec(r.fVec(cycle, fault.SA2Req, o, -1, uint32(reqs[o]))) & bitvec.Mask(P)
		gnt := rrArbitrate(req, P, &r.st.SA2Next[o])
		gnt = bitvec.Vec(r.fVec(cycle, fault.SA2Gnt, o, -1, uint32(gnt))) & bitvec.Mask(P)
		r.sig.SetArbiter(BankSA2, o, ReqGnt{Req: req, Gnt: gnt})
		if gnt.IsZero() {
			continue
		}
		r.st.StCol[o] = uint32(gnt)
		r.latchedCols = r.latchedCols.Set(o)
		for gw := gnt & r.ports; !gw.IsZero(); {
			var p int
			p, gw = gw.NextBit()
			// A grant the plane conjured for a port with no SA1 winner this
			// cycle is not speculative; its latch is a stale one.
			spec := specWon.Get(p)
			fl := r.st.StFlags[p] | soa.StReadEn
			if spec {
				fl |= soa.StSpec
			} else {
				fl &^= soa.StSpec
			}
			r.st.StFlags[p] = fl
			r.st.StOut[p] = int32(o) // (p is marked: its SA1 round ran)
			r.latchedRows = r.latchedRows.Set(p)
			vcSel := int(r.st.SA1Win[p])
			ovc := r.vcOutVCR(cycle, p, vcSel)
			if !r.quiet {
				latch := SALatch{OutPort: o, InPort: p, InVC: vcSel, OutVC: ovc, Speculative: spec}
				if ovc < r.cfg.VCs {
					latch.CreditsBefore = r.creditR(cycle, o, ovc)
				}
				r.sig.SALatches = append(r.sig.SALatches, latch)
			}
			if ovc < r.cfg.VCs && !spec {
				// Reserve the downstream slot now; the datapath follows
				// next cycle.
				i := r.iv(o, ovc)
				r.st.Credits[i] = (r.st.Credits[i] - 1) & r.crMask
			}
		}
	}
}

// phaseVA runs the separable virtual-channel allocation: VA1 picks one
// routed VC per input port, VA2 picks one input port per output port
// and assigns it a free downstream VC of the packet's message class.
func (r *Router) phaseVA(cycle int64, busy bitvec.Vec) {
	var reqs [P]bitvec.Vec // VA2's, by output
	var outs bitvec.Vec
	for w := busy; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		var req bitvec.Vec
		// VA1 requests come from VCs in the WaitingVA state.
		for vs := r.sweep(bitvec.Vec(r.waitVA[p]), r.vcMask); !vs.IsZero(); {
			var v int
			v, vs = vs.NextBit()
			if r.vcStateR(cycle, p, v) == VCWaitingVA {
				req = req.Set(v)
			}
		}
		if r.vacant(req) {
			continue
		}
		r.touch(p) // the priority pointer, the winner latch
		req = bitvec.Vec(r.fVec(cycle, fault.VA1Req, p, -1, uint32(req))) & r.vcMask
		gnt := rrArbitrate(req, r.cfg.VCs, &r.st.VA1Next[p])
		gnt = bitvec.Vec(r.fVec(cycle, fault.VA1Gnt, p, -1, uint32(gnt))) & r.vcMask
		r.sig.SetArbiter(BankVA1, p, ReqGnt{Req: req, Gnt: gnt})
		if v := gnt.First(); v >= 0 {
			r.st.VA1Win[p] = int32(v)
			// The winner bids, in VA2, for the output its VC is routed to if
			// a downstream VC of its packet's class is free there. (A VA2
			// grant writes only its own output's flags, so every bid can be
			// taken before the second round runs.)
			if o := r.vcRouteR(cycle, p, v); r.ports.Get(o) && r.freeOutVC(o, r.classOf(p, v)) >= 0 {
				reqs[o] = reqs[o].Set(p)
				outs = outs.Set(o)
			}
		}
	}
	for w := r.sweep(outs, r.ports); !w.IsZero(); {
		var o int
		o, w = w.NextBit()
		r.touch(o) // the pointer, an output VC's flags
		req := bitvec.Vec(r.fVec(cycle, fault.VA2Req, o, -1, uint32(reqs[o]))) & bitvec.Mask(P)
		gnt := rrArbitrate(req, P, &r.st.VA2Next[o])
		gnt = bitvec.Vec(r.fVec(cycle, fault.VA2Gnt, o, -1, uint32(gnt))) & bitvec.Mask(P)
		r.sig.SetArbiter(BankVA2, o, ReqGnt{Req: req, Gnt: gnt})
		for gw := gnt & r.ports; !gw.IsZero(); {
			var p int
			p, gw = gw.NextBit()
			w := int(r.st.VA1Win[p]) // stale when the grant was faulted in
			chosen := r.freeOutVC(o, r.classOf(p, w))
			code := rawInvalidDir // garbage encoding when no VC was free
			if chosen >= 0 {
				code = chosen
			}
			code = r.fWord(cycle, fault.VA2OutVC, o, -1, code) & (MaxVCs - 1)
			if !r.quiet {
				assign := VAAssign{OutPort: o, InPort: p, InVC: w, OutVC: code}
				if code < r.cfg.VCs {
					i := r.iv(o, code)
					assign.TargetFree = r.st.OutFlags[i]&soa.OutFree != 0
					assign.TargetCredits = r.creditR(cycle, o, code)
				}
				r.sig.VAAssigns = append(r.sig.VAAssigns, assign)
			}
			if code < r.cfg.VCs {
				r.st.OutFlags[r.iv(o, code)] &^= soa.OutFree | soa.OutTailSent
			}
			i := r.iv(p, w)
			r.st.VCOutVC[i] = uint8(code)
			r.setVCState(p, w, VCActive)
		}
	}
}

// classOf returns the message class of the packet resident in (p, v):
// the head flit's class when one is buffered, else the class owning the
// VC partition.
func (r *Router) classOf(p, v int) int {
	if v < 0 || v >= r.cfg.VCs {
		return 0
	}
	if h := r.in[p].vcs[v].head(); h != nil {
		cl := h.Class
		if cl >= 0 && cl < r.cfg.Classes {
			return cl
		}
	}
	return r.vcClass[v]
}

// freeOutVC returns the lowest free output VC of port o within class,
// or -1.
func (r *Router) freeOutVC(o, class int) int {
	lo, hi := r.cfg.VCRange(class)
	base := o * r.st.V
	for v := lo; v < hi; v++ {
		if r.st.OutFlags[base+v]&soa.OutFree != 0 {
			return v
		}
	}
	return -1
}

// phaseRC runs routing computation. Each input port has per-VC RC
// logic, so every VC in the Routing state is served this cycle; under
// healthy operation at most one VC per port can be in that state
// (invariance 31 rests on exactly this).
func (r *Router) phaseRC(cycle int64, busy bitvec.Vec) {
	for w := busy; !w.IsZero(); {
		var p int
		p, w = w.NextBit()
		for vs := r.sweep(bitvec.Vec(r.routing[p]), r.vcMask); !vs.IsZero(); {
			var v int
			v, vs = vs.NextBit()
			if r.vcStateR(cycle, p, v) != VCRouting {
				continue
			}
			r.execRC(cycle, p, v)
		}
	}
}

func (r *Router) execRC(cycle int64, p, v int) {
	vc := &r.in[p].vcs[v]
	var dx, dy int
	var kind flit.Kind
	head := vc.head()
	hasHead := head != nil
	switch {
	case head != nil:
		dx, dy, kind = head.DestX, head.DestY, head.Kind
	case vc.read.valid():
		// RC on an empty buffer consumes whatever the stale storage
		// holds (an "empty" slot is not blank).
		dx, dy, kind = vc.read.f.DestX, vc.read.f.DestY, vc.read.kind
	}
	trueDX, trueDY := dx, dy
	xMask := 1<<fault.BitsFor(r.cfg.Mesh.W-1) - 1
	yMask := 1<<fault.BitsFor(r.cfg.Mesh.H-1) - 1
	dx = r.fWord(cycle, fault.RCInDestX, p, -1, dx) & xMask
	dy = r.fWord(cycle, fault.RCInDestY, p, -1, dy) & yMask
	cands := r.cfg.Alg.Candidates(r.cfg.Mesh, r.id, dx, dy, topology.Direction(p))
	dir := r.pickCandidate(cands)
	code := int(dir) & (1<<DirWidth - 1)
	code = r.fWord(cycle, fault.RCOutDir, p, -1, code) & (1<<DirWidth - 1)
	r.st.VCRoute[r.iv(p, v)] = uint8(code)
	r.setVCState(p, v, VCWaitingVA)
	if r.quiet {
		return
	}
	r.sig.RCExecs = append(r.sig.RCExecs, RCExec{
		Port: p, VC: v, HasHead: hasHead, HeadKind: kind,
		DestX: dx, DestY: dy, TrueDestX: trueDX, TrueDestY: trueDY, OutDir: code,
	})
	r.sig.RCDone[p] = r.sig.RCDone[p].Set(v)
}

// pickCandidate selects among the algorithm's permitted directions:
// deterministic algorithms offer one; adaptive algorithms are broken
// toward the output port with the most free VCs (a standard local
// congestion heuristic).
func (r *Router) pickCandidate(cands []topology.Direction) topology.Direction {
	if len(cands) == 0 {
		return topology.Invalid
	}
	if len(cands) == 1 {
		return cands[0]
	}
	best := cands[0]
	bestFree := -1
	for _, d := range cands {
		o := int(d)
		if o < 0 || o >= P || !r.ports.Get(o) {
			continue
		}
		free := 0
		base := o * r.st.V
		for v := 0; v < r.cfg.VCs; v++ {
			if r.st.OutFlags[base+v]&soa.OutFree != 0 {
				free++
			}
		}
		if free > bestFree {
			bestFree = free
			best = d
		}
	}
	return best
}

// rrArbitrate is the router's round-robin arbiter, a pure function over an
// SoA priority pointer: the client after the most recent winner has highest
// priority, and zero requests leave the pointer untouched. The pointer is in
// [0, width). The winner is the lowest request at or above the pointer, or
// failing that the lowest request: one bit-scan.
func rrArbitrate(req bitvec.Vec, width int, next *int32) bitvec.Vec {
	req &= bitvec.Mask(width)
	if req.IsZero() {
		return 0
	}
	win := req &^ (1<<uint(*next) - 1)
	if win.IsZero() {
		win = req
	}
	idx := win.First()
	nn := idx + 1
	if nn >= width {
		nn = 0
	}
	*next = int32(nn)
	return bitvec.Vec(1) << uint(idx)
}
