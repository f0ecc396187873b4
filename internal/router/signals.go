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

// RecomputeActive rebuilds the Active masks from the snapshot values.
// The simulator maintains the masks inline during BeginCycle; this
// exists for tests that assemble a Pre by hand (core's TestUnitChecker*).
func (pre *Pre) RecomputeActive() {
	for p := 0; p < P; p++ {
		var m bitvec.Vec
		for v := range pre.In[p] {
			if pre.In[p][v].State != VCIdle || pre.In[p][v].BufLen > 0 {
				m = m.Set(v)
			}
		}
		pre.Active[p] = m
	}
}

// Signals is everything observable about one router in one cycle: the
// pre-cycle architectural snapshot plus every control signal, all
// post-fault. It is rebuilt (in place) every cycle.
type Signals struct {
	Router int
	Cycle  int64

	Pre Pre

	// RC activity.
	RCExecs []RCExec
	// RCDone[p] has bit v set when VC v of input port p completed RC
	// this cycle (invariance 31 wants at most one per port).
	RCDone [P]bitvec.Vec

	// Arbiter activity; VA1/SA1 indexed by input port, VA2/SA2 by
	// output port. SetArbiter writes them.
	VA1, SA1 [P]ReqGnt
	VA2, SA2 [P]ReqGnt
	// Granted has bit bank*P+port set for every arbiter whose grant vector
	// is not zero (bank BankVA1 … BankSA2): on most cycles none or one of
	// the twenty.
	Granted bitvec.Vec

	VAAssigns []VAAssign
	SALatches []SALatch

	// Crossbar activity: per-output column control vectors (post-
	// fault), rows driving flits, and the flit conservation counts of
	// invariance 16.
	XbarCol  [P]bitvec.Vec
	XbarRows bitvec.Vec
	XbarIn   int
	XbarOut  int
	// XbarSpecNull marks output ports whose reservation was a
	// speculative grant nullified at traversal time (legal in
	// speculative mode: the column is latched but no flit flows).
	XbarSpecNull bitvec.Vec

	Reads      [P]ReadSig
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
// in Granted whether it granted. It is the one writer of the four banks.
func (s *Signals) SetArbiter(b, port int, rg ReqGnt) {
	s.Bank(b)[port] = rg
	if !rg.Gnt.IsZero() {
		s.Granted |= 1 << uint(b*P+port)
	}
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
	s.RCDone = [P]bitvec.Vec{}
	s.VA1, s.SA1 = [P]ReqGnt{}, [P]ReqGnt{}
	s.VA2, s.SA2 = [P]ReqGnt{}, [P]ReqGnt{}
	s.Granted = 0
	s.XbarCol = [P]bitvec.Vec{}
	s.Reads = [P]ReadSig{}
	s.CreditsIn = [P]bitvec.Vec{}
	s.XbarRows = 0
	s.XbarIn = 0
	s.XbarOut = 0
	s.XbarSpecNull = 0
}
