package router

import (
	"nocalert/internal/bitvec"
	"nocalert/internal/flit"
	"nocalert/internal/topology"
)

// P is the port-array size used throughout the signal records; absent
// edge/corner ports simply never carry signals.
const P = int(topology.NumPorts)

// ReqGnt is an arbiter's observable interface: its request inputs and
// grant outputs for one cycle, both post-fault — the two vectors the
// paper's example checker circuit (Figure 4) taps.
type ReqGnt struct {
	Req, Gnt bitvec.Vec
}

// RCExec records one execution of a routing-computation unit: the
// inputs the unit consumed (post-fault) and the output it produced
// (post-fault). Checkers 1–3, 20, 21 and 31 read these.
type RCExec struct {
	// Port and VC identify the input VC served.
	Port, VC int
	// HasHead reports whether a flit was at the head of the buffer;
	// BufEmpty is its negation kept explicit for readability.
	HasHead bool
	// HeadKind is the kind of the flit RC operated on (valid only if
	// HasHead).
	HeadKind flit.Kind
	// DestX, DestY are the destination coordinate wires as the RC unit
	// saw them (post input-fault).
	DestX, DestY int
	// TrueDestX, TrueDestY are the coordinates as stored in the header
	// flit itself — the checker's independent tap on the VC buffer,
	// upstream of any fault on the RC input wires. Valid only when
	// HasHead.
	TrueDestX, TrueDestY int
	// OutDir is the raw output-direction code produced (post
	// output-fault). Legal codes are 0–4.
	OutDir int
}

// VAAssign records one output-VC assignment made by an output port's
// VA2 stage. Checkers 7, 8, 10, 12 and 19 read these.
type VAAssign struct {
	// OutPort is the output port whose VA2 made the assignment.
	OutPort int
	// InPort, InVC identify the granted input VC (via the port's VA1
	// winner latch).
	InPort, InVC int
	// OutVC is the raw assigned output-VC code (post-fault); legal
	// codes are 0..VCs-1.
	OutVC int
	// TargetFree and TargetCredits snapshot the addressed output VC at
	// assignment time (meaningful only when OutVC is in range).
	TargetFree    bool
	TargetCredits int
}

// SALatch records one switch-traversal reservation formed by SA2:
// output port OutPort will connect to input port InPort next cycle,
// transmitting input VC InVC (the port's SA1 winner latch). Checkers
// 9, 11, 13 and the credit rule of 7 read these.
type SALatch struct {
	OutPort, InPort, InVC int
	// OutVC is the raw output-VC register value of the granted input VC
	// at grant time; credits for (OutPort, OutVC) are reserved here.
	OutVC int
	// CreditsBefore is the credit count of (OutPort, OutVC) at grant
	// time (meaningful only when OutVC is in range).
	CreditsBefore int
	// Speculative marks a grant issued to a VC that had not completed
	// VA (legal only in speculative mode, where it may be nullified).
	Speculative bool
}

// ReadSig is an input port's buffer read activity for one cycle.
type ReadSig struct {
	// Strobe is the per-VC read-strobe vector (post-fault).
	Strobe bitvec.Vec
	// EmptyBits marks strobed VCs whose buffer was empty at read time —
	// the illegal reads of invariance 24.
	EmptyBits bitvec.Vec
}

// WriteTarget records the state of one strobed VC at write time.
type WriteTarget struct {
	VC int
	// FullBefore: the buffer had no space (invariance 25); the flit was
	// dropped.
	FullBefore bool
	// StateBefore is the VC's pipeline state before the write.
	StateBefore VCState
	// PrevKind is the kind of the previously written flit, if any —
	// the non-atomic mixing rule (27) needs it.
	PrevKind flit.Kind
	HasPrev  bool
	// ArrivedAfter is the VC's per-packet flit arrival count including
	// this write (invariance 28).
	ArrivedAfter int
}

// Arrival records one flit arriving at an input port: the control
// fields as latched (post-fault) and the write strobes they produced.
// Checkers 18, 25–28 and 30 read these.
type Arrival struct {
	Port int
	// Kind and VCField are the flit's control fields post-fault.
	Kind    flit.Kind
	VCField int
	// Strobe is the per-VC write-strobe vector (post-fault).
	Strobe bitvec.Vec
	// Flit is the stored flit (its fields reflect the faulted values).
	Flit *flit.Flit
	// Targets describes each strobed VC at write time. It is a capped
	// piece of one backing array the router refills every cycle: valid,
	// like the rest of the record, until the next BeginCycle.
	Targets []WriteTarget
}

// Departure records one flit leaving through the crossbar.
type Departure struct {
	OutPort int
	// OutVC is the VC field stamped on the flit (the downstream VC).
	OutVC int
	// InPort is the crossbar row the flit came from.
	InPort int
	// Flit is the departing flit.
	Flit *flit.Flit
	// Garbage marks a flit synthesised by a read from an empty buffer.
	Garbage bool
}

// PreVC is the pre-cycle snapshot of one input VC, as read through the
// (possibly faulted) register read path — the reference state the
// checkers compare signals against.
type PreVC struct {
	State    VCState
	BufLen   int
	HasHead  bool
	HeadKind flit.Kind
	Class    int
	Route    int
	OutVC    int
}

// Pre is the whole-router pre-cycle snapshot: the input VCs' status
// tables. (The output side — free flags, credit counters — is not
// snapshotted: every checker that judges a credit reads the value its
// signal record carries, VAAssign.TargetCredits or SALatch.CreditsBefore.)
type Pre struct {
	In [P][]PreVC
	// Active[p] has bit v set when In[p][v] snapshots anything other
	// than a free, empty VC (State != Idle or BufLen > 0). BeginCycle
	// computes it from the snapshot values themselves (post-fault), so
	// sweeps over these masks see every VC the invariance checks could
	// possibly flag: a free empty VC can violate none of the stored-form
	// invariances regardless of its route/outVC residue.
	Active [P]bitvec.Vec
}

// Signals is everything observable about one router in one cycle: the
// pre-cycle architectural snapshot plus every control signal, all
// post-fault. It is rebuilt (in place) every cycle; a quiet cycle
// (Router.BeginUnobserved) rebuilds Router, Cycle, Departures, the arbiter
// banks, Granted and Arbiters, and leaves the rest as the last full cycle
// did. Each sparse field has a port mask its one writer keeps beside it,
// which is what the checkers walk.
type Signals struct {
	Router int
	Cycle  int64
	// Ports is the set of ports the router has, fixed by its place in
	// the mesh (invariance 2 refuses a route to any other).
	Ports bitvec.Vec

	Pre Pre

	// RC activity.
	RCExecs []RCExec
	// RCDone[p] has bit v set when VC v of input port p completed RC
	// this cycle (invariance 31 wants at most one per port). RCPorts has
	// bit p set while RCDone[p] is not zero.
	RCDone  [P]bitvec.Vec
	RCPorts bitvec.Vec

	// Arbiter activity; VA1/SA1 indexed by input port, VA2/SA2 by
	// output port. SetArbiter writes them.
	VA1, SA1 [P]ReqGnt
	VA2, SA2 [P]ReqGnt
	// Granted has bit bank*P+port set for every arbiter whose grant vector
	// is not zero (bank BankVA1 … BankSA2): on most cycles none or one of
	// the twenty. Arbiters has the bit set for every arbiter whose request
	// or grant vector is not zero: the ones a checker has anything to judge.
	Granted, Arbiters bitvec.Vec

	VAAssigns []VAAssign
	SALatches []SALatch

	// Crossbar activity: per-output column control vectors (post-
	// fault), rows driving flits, and the flit conservation counts of
	// invariance 16. XbarCols has bit o set while XbarCol[o] is not zero.
	XbarCol  [P]bitvec.Vec
	XbarCols bitvec.Vec
	XbarRows bitvec.Vec
	XbarIn   int
	XbarOut  int
	// XbarSpecNull marks output ports whose reservation was a
	// speculative grant nullified at traversal time (legal in
	// speculative mode: the column is latched but no flit flows).
	XbarSpecNull bitvec.Vec

	// Reads[p] is input port p's buffer reads; ReadPorts has bit p set
	// while they are not zero.
	Reads      [P]ReadSig
	ReadPorts  bitvec.Vec
	Arrivals   []Arrival
	Departures []Departure
	// CreditsIn[o] is the post-fault credit-return vector from the
	// downstream of output port o.
	CreditsIn [P]bitvec.Vec
}

// The four arbiter banks of a Signals record, in the order of their bits in
// Signals.Granted.
const (
	BankVA1 = iota
	BankSA1
	BankVA2
	BankSA2
)

// Bank returns arbiter bank b (BankVA1 … BankSA2).
func (s *Signals) Bank(b int) *[P]ReqGnt {
	return [...]*[P]ReqGnt{&s.VA1, &s.SA1, &s.VA2, &s.SA2}[b]
}

// SetArbiter records arbiter port of bank b's request and grant vectors, and
// in Granted and Arbiters whether it granted and whether it did anything. It
// is the one writer of the four banks.
func (s *Signals) SetArbiter(b, port int, rg ReqGnt) {
	s.Bank(b)[port] = rg
	bit := bitvec.Vec(1) << uint(b*P+port)
	if !rg.Gnt.IsZero() {
		s.Granted |= bit
	}
	if rg.Req|rg.Gnt != 0 {
		s.Arbiters |= bit
	}
}

// BankPorts returns the ports of bank b set in a mask of Granted's or
// Arbiters' layout.
func BankPorts(m bitvec.Vec, b int) bitvec.Vec { return m >> uint(b*P) & (1<<P - 1) }

// setRCDone records that input VC (p,v) completed RC: the one writer of
// RCDone.
func (s *Signals) setRCDone(p, v int) {
	s.RCDone[p] = s.RCDone[p].Set(v)
	s.RCPorts = s.RCPorts.Set(p)
}

// setXbarCol records output o's crossbar column: the one writer of XbarCol.
func (s *Signals) setXbarCol(o int, col bitvec.Vec) {
	s.XbarCol[o] = col
	if !col.IsZero() {
		s.XbarCols = s.XbarCols.Set(o)
	}
}

// setRead records input port p's buffer reads: the one writer of Reads.
func (s *Signals) setRead(p int, rs ReadSig) {
	s.Reads[p] = rs
	if rs.Strobe|rs.EmptyBits != 0 {
		s.ReadPorts = s.ReadPorts.Set(p)
	}
}

// RecomputeMasks rebuilds the record's activity masks — Granted, Arbiters,
// RCPorts, XbarCols, ReadPorts and the snapshot's Active — from the fields
// they stand for, running each field's writer over it again. The router
// keeps them where it writes those fields; this is for tests that assemble
// a record by hand, and for the lockstep tests that hold the kept masks to
// it.
func (s *Signals) RecomputeMasks() {
	s.Granted, s.Arbiters, s.RCPorts, s.XbarCols, s.ReadPorts = 0, 0, 0, 0, 0
	for b := BankVA1; b <= BankSA2; b++ {
		for p, rg := range s.Bank(b) {
			s.SetArbiter(b, p, rg)
		}
	}
	for p := 0; p < P; p++ {
		if !s.RCDone[p].IsZero() {
			s.RCPorts = s.RCPorts.Set(p)
		}
		s.setXbarCol(p, s.XbarCol[p])
		s.setRead(p, s.Reads[p])
		var act bitvec.Vec
		for v, pv := range s.Pre.In[p] {
			if pv.State != VCIdle || pv.BufLen > 0 {
				act = act.Set(v)
			}
		}
		s.Pre.Active[p] = act
	}
}

// resetQuiet is reset for a quiet cycle (Router.quiet): it clears what
// the cycle writes and leaves the rest stale.
func (s *Signals) resetQuiet(router int, cycle int64) {
	s.Router = router
	s.Cycle = cycle
	s.Departures = s.Departures[:0]
	s.VA1, s.SA1 = [P]ReqGnt{}, [P]ReqGnt{}
	s.VA2, s.SA2 = [P]ReqGnt{}, [P]ReqGnt{}
	s.Granted, s.Arbiters = 0, 0
}

// reset clears the record for reuse, keeping allocated slices.
func (s *Signals) reset(router int, cycle int64) {
	s.Router = router
	s.Cycle = cycle
	s.RCExecs = s.RCExecs[:0]
	s.VAAssigns = s.VAAssigns[:0]
	s.SALatches = s.SALatches[:0]
	s.Arrivals = s.Arrivals[:0]
	s.Departures = s.Departures[:0]
	// Whole arrays at a time: a handful of wide stores, where a loop over
	// the ports is eight narrow ones a port.
	s.RCDone, s.RCPorts = [P]bitvec.Vec{}, 0
	s.VA1, s.SA1 = [P]ReqGnt{}, [P]ReqGnt{}
	s.VA2, s.SA2 = [P]ReqGnt{}, [P]ReqGnt{}
	s.Granted, s.Arbiters = 0, 0
	s.XbarCol, s.XbarCols = [P]bitvec.Vec{}, 0
	s.Reads, s.ReadPorts = [P]ReadSig{}, 0
	s.CreditsIn = [P]bitvec.Vec{}
	s.XbarRows = 0
	s.XbarIn = 0
	s.XbarOut = 0
	s.XbarSpecNull = 0
}
