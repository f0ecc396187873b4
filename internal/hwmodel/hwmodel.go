// Package hwmodel is the substitute for the paper's Verilog + Synopsys
// Design Compiler evaluation (§5.5): an analytical gate-equivalent (GE)
// model of the baseline router, the NoCAlert checker fabric and the
// DMR-CL comparison point, parameterized by ports, VCs, buffer depth
// and flit width.
//
// The model is structural, not fitted: each module's GE count follows
// the textbook composition of the unit (flip-flop cost per stored bit,
// mux-tree cost per selected bit, matrix-arbiter cost quadratic in its
// width, checker cost linear in the checked unit's width, after the
// paper's Figure 4). Absolute percentages therefore differ from the
// paper's 65 nm synthesis, but the Figure 10 *shape* — NoCAlert's
// overhead flat at a few percent while DMR-CL's grows steeply with VC
// count because the allocators it duplicates grow super-linearly — is
// reproduced by construction, which is the property the reproduction
// targets.
package hwmodel

import "fmt"

// Gate-equivalent cost constants (2-input NAND equivalents, standard
// rules of thumb for standard-cell mapping).
const (
	// geFlipFlop is the cost of one stored bit (D flip-flop + clock).
	geFlipFlop = 6.0
	// geSRAMBit is the cost of one buffer bit including its share of
	// the FIFO pointer, EDC and write-port logic (flit buffers dominate
	// router area in synthesized VC routers).
	geSRAMBit = 8.0
	// geMux2 is the cost of a 2:1 mux per bit.
	geMux2 = 2.5
	// geArbQuad and geArbLin compose a matrix arbiter of width n:
	// geArbQuad*n² (priority matrix + grant logic) + geArbLin*n.
	geArbQuad = 1.0
	geArbLin  = 2.0
	// geCheckPerInput is the per-input cost of an invariance checker in
	// the style of Figure 4 (two gates per input plus its share of the
	// combining OR tree).
	geCheckPerInput = 3.0
	// geComparatorBit is the per-bit cost of the DMR output comparators.
	geComparatorBit = 1.2
)

// Params fixes the router dimensions for the model.
type Params struct {
	// Ports is the router radix (5 for a mesh router).
	Ports int
	// VCs is the number of virtual channels per port.
	VCs int
	// BufDepth is the per-VC buffer depth in flits.
	BufDepth int
	// FlitWidth is the link width in bits (the paper uses 128).
	FlitWidth int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Ports < 2 || p.VCs < 1 || p.BufDepth < 1 || p.FlitWidth < 1 {
		return fmt.Errorf("hwmodel: invalid params %+v", p)
	}
	return nil
}

// muxTree returns the GE cost of an n:1 mux over width bits.
func muxTree(n, width int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * geMux2 * float64(width)
}

// arbiter returns the GE cost of a matrix arbiter of width n.
func arbiter(n int) float64 {
	return geArbQuad*float64(n*n) + geArbLin*float64(n)
}

// Area is a GE breakdown of one router.
type Area struct {
	// Datapath.
	Buffers   float64 // input VC buffers
	Crossbar  float64 // the switch itself
	PortMuxes float64 // per-port VC input demux / output mux

	// Control logic — the surface NoCAlert protects and DMR-CL
	// duplicates.
	RC      float64 // routing computation units
	VA      float64 // virtual-channel allocator (both stages)
	SA      float64 // switch allocator (both stages)
	VCState float64 // VC state tables
	Credits float64 // credit counters and credit I/O
	XbarCtl float64 // crossbar control registers
}

// Datapath returns the datapath subtotal.
func (a Area) Datapath() float64 { return a.Buffers + a.Crossbar + a.PortMuxes }

// Control returns the control-logic subtotal.
func (a Area) Control() float64 {
	return a.RC + a.VA + a.SA + a.VCState + a.Credits + a.XbarCtl
}

// Total returns the router's full GE count.
func (a Area) Total() float64 { return a.Datapath() + a.Control() }

// Router returns the baseline router's GE breakdown following the
// canonical VC-router composition (Peh & Dally, HPCA 2001): the VA's
// second stage needs one arbiter per output VC, each of width
// Ports×VCs, which is the super-linear term that makes control logic —
// and hence DMR — blow up with VC count.
func Router(p Params) Area {
	P, V, D, W := float64(p.Ports), p.VCs, p.BufDepth, p.FlitWidth
	var a Area
	// Datapath.
	a.Buffers = P * float64(V*D*W) * geSRAMBit
	a.Crossbar = float64(p.Ports) * muxTree(p.Ports, W) // one W-bit P:1 mux per output
	a.PortMuxes = 2 * P * muxTree(V, W)                 // input demux + output mux per port

	// Control.
	// RC: per port, two coordinate comparators plus quadrant decode.
	a.RC = P * 160
	// VA1: each input VC arbitrates among the candidate output VCs of
	// its routed port (width V); VA2: one arbiter per output VC, width
	// P*V.
	a.VA = P*float64(V)*arbiter(V) + P*float64(V)*arbiter(p.Ports*V)
	// SA1: one V-wide arbiter per input port; SA2: one P-wide arbiter
	// per output port; plus per-VC credit comparators feeding SA1.
	a.SA = P*arbiter(V) + P*arbiter(p.Ports) + P*float64(V)*8
	// VC state tables: state (3b) + route (3b) + output VC (3b) +
	// bookkeeping flags (~5b) per VC.
	a.VCState = P * float64(V) * 14 * geFlipFlop
	// Credit counters: a small up/down counter per output VC plus
	// credit I/O latches.
	a.Credits = P * float64(V) * (float64(bitsFor(D))*geFlipFlop + 10)
	// Crossbar control: one P-wide one-hot register per output.
	a.XbarCtl = P * P * geFlipFlop
	return a
}

func bitsFor(max int) int {
	n, b := max, 0
	for n > 0 {
		b++
		n >>= 1
	}
	if b == 0 {
		b = 1
	}
	return b
}

// CheckerArea is the GE breakdown of the NoCAlert fabric, grouped as in
// Table 1.
type CheckerArea struct {
	RCCheckers      float64 // invariances 1–3
	ArbiterCheckers float64 // invariances 4–13
	XbarCheckers    float64 // invariances 14–16
	StateCheckers   float64 // invariances 17–28
	PortCheckers    float64 // invariances 29–31
	E2ECheckers     float64 // invariance 32
}

// Total returns the checker fabric's full GE count.
func (c CheckerArea) Total() float64 {
	return c.RCCheckers + c.ArbiterCheckers + c.XbarCheckers +
		c.StateCheckers + c.PortCheckers + c.E2ECheckers
}

// Checkers returns the NoCAlert fabric's GE breakdown. Every checker is
// linear in the width of the unit it checks — the paper's central
// hardware argument ("the checker size grows linearly with the number
// of arbiter inputs, whereas the arbiter size grows in a polynomial
// fashion").
func Checkers(p Params) CheckerArea {
	P, V := float64(p.Ports), p.VCs
	var c CheckerArea
	// RC checkers: turn-legality decode, direction-range check and a
	// coordinate comparator per port.
	c.RCCheckers = P * 60
	// Arbiter checkers: per arbiter, geCheckPerInput per request line
	// covers invariances 4–6; agreement checks (10–13) add a few gates
	// per port.
	va := P*float64(V)*geCheckPerInput*float64(V) + P*float64(V)*geCheckPerInput*float64(p.Ports*V)
	sa := P*geCheckPerInput*float64(V) + P*geCheckPerInput*float64(p.Ports)
	agree := P * float64(V) * 6
	c.ArbiterCheckers = va + sa + agree
	// Crossbar checkers: population checks over the row/column control
	// vectors plus an in/out counter comparison.
	c.XbarCheckers = P*float64(p.Ports)*geCheckPerInput + 40
	// VC-state checkers: a handful of gates per VC for the pipeline
	// order, buffer read/write and flit-count rules.
	c.StateCheckers = P * float64(V) * 10
	// Port-level checkers: population counts over V-wide strobes.
	c.PortCheckers = P * float64(V) * geCheckPerInput
	// End-to-end checker: one node-id comparator at the ejection port.
	c.E2ECheckers = 30
	return c
}

// dmrFactor is the area multiplier of DMR-CL relative to the control
// logic it duplicates: one full copy plus output comparators.
func dmrArea(p Params, base Area) float64 {
	// Comparators over the control outputs: grant vectors, routes and
	// crossbar controls, roughly 3 bits per VC per port plus per-port
	// vectors.
	cmpBits := float64(p.Ports*p.VCs*6 + p.Ports*p.Ports)
	return base.Control() + cmpBits*geComparatorBit
}

// Overhead is one Figure 10 data point.
type Overhead struct {
	Params Params
	// RouterGE is the baseline router area.
	RouterGE float64
	// CheckerGE is the NoCAlert fabric area; NoCAlertPct its relative
	// overhead.
	CheckerGE   float64
	NoCAlertPct float64
	// DMRGE is the DMR-CL added area; DMRPct its relative overhead.
	DMRGE  float64
	DMRPct float64
}

// AreaOverhead computes the Figure 10 point for the given parameters.
func AreaOverhead(p Params) Overhead {
	base := Router(p)
	chk := Checkers(p)
	dmr := dmrArea(p, base)
	return Overhead{
		Params:      p,
		RouterGE:    base.Total(),
		CheckerGE:   chk.Total(),
		NoCAlertPct: 100 * chk.Total() / base.Total(),
		DMRGE:       dmr,
		DMRPct:      100 * dmr / base.Total(),
	}
}

// Power estimates relative power in arbitrary units: gate count
// weighted by switching activity, with storage cells charged a clock
// load factor. The checkers are purely combinational (no storage), so
// their power overhead sits well below their area overhead — the
// paper's 0.3%–1.2% observation.
func Power(p Params) (routerPower, checkerPower, overheadPct float64) {
	const activity = 0.5
	const clockFactor = 2.0 // storage burns clock power every cycle
	base := Router(p)
	storage := base.Buffers + base.VCState + base.Credits + base.XbarCtl
	combinational := base.Total() - storage
	routerPower = activity*(combinational) + clockFactor*storage
	chk := Checkers(p)
	checkerPower = activity * chk.Total()
	overheadPct = 100 * checkerPower / routerPower
	return routerPower, checkerPower, overheadPct
}

// CriticalPath estimates the router's critical path in gate levels and
// the relative impact of the checker taps. The baseline path runs
// through the widest allocator stage (VA2); a checker adds one gate
// load of fan-out on the signals it taps but sits off the
// compute path, so the impact is a small wire/load penalty on one
// stage — the paper reports ≤3%, ~1% on average.
func CriticalPath(p Params) (baseLevels, withCheckersLevels, overheadPct float64) {
	// log2 levels of the widest arbiter plus request/grant
	// encode/decode stages.
	widest := p.Ports * p.VCs
	levels := 0.0
	for n := 1; n < widest; n <<= 1 {
		levels++
	}
	baseLevels = levels + 6 // request gen + grant decode + latch setup
	// Checker tap: extra fan-out on the grant nets, modelled as a
	// fraction of one gate level.
	const tapLoad = 0.12
	withCheckersLevels = baseLevels + tapLoad
	overheadPct = 100 * tapLoad / baseLevels
	return baseLevels, withCheckersLevels, overheadPct
}
