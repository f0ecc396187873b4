// Package core implements NoCAlert itself: the 32 invariance checkers
// of the paper's Table 1 and the engine that runs them concurrently
// with network operation.
//
// Each checker is the software twin of a tiny combinational circuit
// tapping the inputs and outputs of one router module. A checker flags
// *functionally illegal* outputs — operational decisions no legal input
// could produce — and nothing else; erroneous-but-legal outputs pass,
// by design, because they either trigger a later checker downstream or
// prove benign at the network level (the paper's Observation 5). The
// checkers never influence the router: the engine attaches as a passive
// sim.Monitor.
package core

import (
	"fmt"

	"nocalert/internal/router"
	"nocalert/internal/sim"
)

// CheckerID numbers the invariances exactly as the paper's Table 1.
type CheckerID int

// The 32 invariances of Table 1.
const (
	IllegalTurn            CheckerID = 1  // RC: forbidden turn
	InvalidRCOutput        CheckerID = 2  // RC: impossible direction code
	NonMinimalRoute        CheckerID = 3  // RC: hop away from destination
	GrantWithoutRequest    CheckerID = 4  // arbiter: grant w/o request
	GrantToNobody          CheckerID = 5  // arbiter: requests but no winner
	GrantNotOneHot         CheckerID = 6  // arbiter: multi-hot grant vector
	GrantToOccupiedOrFull  CheckerID = 7  // allocation to busy/credit-less VC
	OneToOneVCAssignment   CheckerID = 8  // VA: VC assigned twice
	OneToOnePortAssignment CheckerID = 9  // SA: port connected twice
	VAAgreesWithRC         CheckerID = 10 // VA result vs routed output port
	SAAgreesWithRC         CheckerID = 11 // SA result vs routed output port
	IntraVAStageOrder      CheckerID = 12 // VA2 win requires VA1 win
	IntraSAStageOrder      CheckerID = 13 // SA2 win requires SA1 win
	XbarColumnOneHot       CheckerID = 14 // crossbar column multi-connected
	XbarRowOneHot          CheckerID = 15 // crossbar row multi-connected
	XbarFlitConservation   CheckerID = 16 // flits in != flits out
	ConsistentVCState      CheckerID = 17 // pipeline stages out of order
	HeaderOnlyInFreeVC     CheckerID = 18 // non-header entering a free VC
	InvalidOutputVC        CheckerID = 19 // out-of-range output VC value
	RCOnNonHeader          CheckerID = 20 // RC completed on a body/tail flit
	RCOnEmptyVC            CheckerID = 21 // RC completed on an empty buffer
	VAOnNonHeader          CheckerID = 22 // VA completed on a body/tail flit
	VAOnEmptyVC            CheckerID = 23 // VA completed on an empty buffer
	ReadFromEmptyBuffer    CheckerID = 24 // read strobe on an empty VC
	WriteToFullBuffer      CheckerID = 25 // write strobe on a full VC
	BufferAtomicity        CheckerID = 26 // header into occupied atomic VC
	NonAtomicPacketMixing  CheckerID = 27 // non-header after tail (non-atomic)
	PacketFlitCount        CheckerID = 28 // packet length != class constant
	ConcurrentVCReads      CheckerID = 29 // two reads in one port, one cycle
	ConcurrentVCWrites     CheckerID = 30 // two writes in one port, one cycle
	ConcurrentRCComplete   CheckerID = 31 // two RC completions in one port
	EndToEndMisdelivery    CheckerID = 32 // ejected flit not for this node
)

// NumCheckers is the highest checker id.
const NumCheckers = 32

var checkerNames = map[CheckerID]string{
	IllegalTurn:            "illegal turn",
	InvalidRCOutput:        "invalid RC output direction",
	NonMinimalRoute:        "non-minimal routing",
	GrantWithoutRequest:    "grant w/o request",
	GrantToNobody:          "grant to nobody",
	GrantNotOneHot:         "1-hot grant vector",
	GrantToOccupiedOrFull:  "grant to occupied or full VC",
	OneToOneVCAssignment:   "one-to-one VC assignment",
	OneToOnePortAssignment: "one-to-one port assignment",
	VAAgreesWithRC:         "VA agrees with RC",
	SAAgreesWithRC:         "SA agrees with RC",
	IntraVAStageOrder:      "intra-VA stage order",
	IntraSAStageOrder:      "intra-SA stage order",
	XbarColumnOneHot:       "1-hot column control vector",
	XbarRowOneHot:          "1-hot row control vector",
	XbarFlitConservation:   "#in flits equals #out flits",
	ConsistentVCState:      "consistent VC buffer state",
	HeaderOnlyInFreeVC:     "only header flits in free VC",
	InvalidOutputVC:        "invalid output VC value",
	RCOnNonHeader:          "complete RC on non-header flit",
	RCOnEmptyVC:            "complete RC on empty VC",
	VAOnNonHeader:          "complete VA on non-header flit",
	VAOnEmptyVC:            "complete VA on empty VC",
	ReadFromEmptyBuffer:    "read from empty buffer",
	WriteToFullBuffer:      "write to full buffer",
	BufferAtomicity:        "buffer atomicity violation",
	NonAtomicPacketMixing:  "packet mixing in non-atomic buffer",
	PacketFlitCount:        "packet flit-count violation",
	ConcurrentVCReads:      "concurrent read from multiple VCs",
	ConcurrentVCWrites:     "concurrent write to multiple VCs",
	ConcurrentRCComplete:   "concurrent RC completion",
	EndToEndMisdelivery:    "end-to-end misdelivery",
}

// String returns the checker's Table 1 description.
func (c CheckerID) String() string {
	if n, ok := checkerNames[c]; ok {
		return fmt.Sprintf("#%d %s", int(c), n)
	}
	return fmt.Sprintf("#%d", int(c))
}

// LowRisk reports whether the checker belongs to the low-risk class of
// Observation 2: invariances 1 and 3 flag RC misdirections that, when
// asserted alone, never led to network-level incorrectness in the
// paper's experiments. "NoCAlert Cautious" defers recovery when only
// low-risk checkers have fired.
func (c CheckerID) LowRisk() bool { return c == IllegalTurn || c == NonMinimalRoute }

// Violation is one assertion raised by a checker.
type Violation struct {
	Checker CheckerID
	Router  int
	Cycle   int64
	// Port and VC locate the module instance; -1 when not applicable.
	Port, VC int
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("c%d r%d p%d vc%d %v: %s", v.Cycle, v.Router, v.Port, v.VC, v.Checker, v.Detail)
}

// Options configures an Engine.
type Options struct {
	// Disabled lists checkers to leave out (ablation studies; e.g.
	// checker 27 is inapplicable with atomic buffers and self-disables
	// regardless).
	Disabled []CheckerID
	// KeepViolations retains every Violation; otherwise only the
	// first-detection bookkeeping and the fired sets are kept (campaigns
	// run millions of cycles).
	KeepViolations bool
	// MaxViolations caps retained violations when KeepViolations is
	// set; 0 means unlimited.
	MaxViolations int
}

// Engine is the NoCAlert checker fabric: it observes every router every
// cycle and raises assertions. It implements sim.Monitor.
type Engine struct {
	sim.BaseMonitor
	cfg     *router.Config
	enabled [NumCheckers + 1]bool
	opts    Options

	violations []Violation

	// What a run's verdict reads.
	firstCycle    int64                 // first assertion, -1 if none
	firstHighRisk int64                 // first assertion from a non-low-risk checker
	firedSet      [NumCheckers + 1]bool // checkers that fired at least once
	firstCycleSet [NumCheckers + 1]bool // checkers asserted in the first detection cycle
}

// NewEngine returns a checker engine for networks built on cfg.
func NewEngine(cfg *router.Config, opts Options) *Engine {
	e := &Engine{cfg: cfg, opts: opts, firstCycle: -1, firstHighRisk: -1}
	for i := 1; i <= NumCheckers; i++ {
		e.enabled[i] = true
	}
	// Exactly one of 26/27 applies, depending on buffer atomicity
	// (paper §4.4 and the Figure 8 footnote).
	if cfg.AtomicVC {
		e.enabled[NonAtomicPacketMixing] = false
	} else {
		e.enabled[BufferAtomicity] = false
	}
	if !cfg.Alg.Minimal() {
		e.enabled[NonMinimalRoute] = false
	}
	for _, id := range opts.Disabled {
		if id >= 1 && id <= NumCheckers {
			e.enabled[id] = false
		}
	}
	return e
}

// emit records a violation.
func (e *Engine) emit(id CheckerID, routerID int, cycle int64, port, vc int, format string, args ...any) {
	if !e.enabled[id] {
		return
	}
	e.firedSet[id] = true
	if e.firstCycle < 0 {
		e.firstCycle = cycle
	}
	if cycle == e.firstCycle {
		e.firstCycleSet[id] = true
	}
	if e.firstHighRisk < 0 && !id.LowRisk() {
		e.firstHighRisk = cycle
	}
	if e.opts.KeepViolations && (e.opts.MaxViolations == 0 || len(e.violations) < e.opts.MaxViolations) {
		e.violations = append(e.violations, Violation{
			Checker: id, Router: routerID, Cycle: cycle, Port: port, VC: vc,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// RouterCycle implements sim.Monitor: it runs every enabled checker
// against the router's signal record.
func (e *Engine) RouterCycle(r *router.Router, s *router.Signals) {
	e.checkRC(s)
	e.checkArbiters(s)
	e.checkAllocation(s)
	e.checkXbar(s)
	e.checkBuffers(s)
	e.checkPortLevel(s)
	e.checkEndToEnd(s)
}

// Violations returns retained violations (KeepViolations only).
func (e *Engine) Violations() []Violation { return e.violations }

// FirstDetection returns the cycle of the first assertion, or -1.
func (e *Engine) FirstDetection() int64 { return e.firstCycle }

// FirstHighRiskDetection returns the first assertion from a checker
// outside the low-risk class (the "NoCAlert Cautious" trigger), or -1.
func (e *Engine) FirstHighRiskDetection() int64 { return e.firstHighRisk }

// Detected reports whether any checker has fired.
func (e *Engine) Detected() bool { return e.firstCycle >= 0 }

// FiredCheckers returns the distinct checkers that have fired, in id
// order.
func (e *Engine) FiredCheckers() []CheckerID {
	var out []CheckerID
	for i := 1; i <= NumCheckers; i++ {
		if e.firedSet[i] {
			out = append(out, CheckerID(i))
		}
	}
	return out
}

// FirstCycleCheckers returns the checkers asserted during the first
// detection cycle (the set Figure 8's attribution uses).
func (e *Engine) FirstCycleCheckers() []CheckerID {
	var out []CheckerID
	for i := 1; i <= NumCheckers; i++ {
		if e.firstCycleSet[i] {
			out = append(out, CheckerID(i))
		}
	}
	return out
}
