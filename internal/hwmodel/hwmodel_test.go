package hwmodel

import "testing"

// paperParams returns the paper's hardware evaluation point (5 ports,
// 5-flit buffers, 128-bit flits) with the given VC count.
func paperParams(vcs int) Params {
	return Params{Ports: 5, VCs: vcs, BufDepth: 5, FlitWidth: 128}
}

// fig10Sweep evaluates the Figure 10 VC sweep (2, 4, 6, 8 VCs by
// default when vcs is nil).
func fig10Sweep(vcs []int) []Overhead {
	if len(vcs) == 0 {
		vcs = []int{2, 4, 6, 8}
	}
	out := make([]Overhead, len(vcs))
	for i, v := range vcs {
		out[i] = AreaOverhead(paperParams(v))
	}
	return out
}

// TestFig10Shape asserts the figure's qualitative content: NoCAlert's
// overhead stays in the paper's few-percent band across the VC sweep,
// while DMR-CL starts several times higher and grows steeply.
func TestFig10Shape(t *testing.T) {
	sweep := fig10Sweep(nil)
	if len(sweep) != 4 {
		t.Fatalf("default sweep has %d points", len(sweep))
	}
	for i, o := range sweep {
		if o.Params.VCs != []int{2, 4, 6, 8}[i] {
			t.Fatalf("sweep order wrong: %+v", o.Params)
		}
		// Paper band: NoCAlert 1.38%–4.42%.
		if o.NoCAlertPct < 1.0 || o.NoCAlertPct > 5.0 {
			t.Errorf("V=%d: NoCAlert overhead %.2f%% outside the paper band", o.Params.VCs, o.NoCAlertPct)
		}
		if o.DMRPct <= o.NoCAlertPct {
			t.Errorf("V=%d: DMR (%.2f%%) not above NoCAlert (%.2f%%)", o.Params.VCs, o.DMRPct, o.NoCAlertPct)
		}
		if o.RouterGE <= 0 || o.CheckerGE <= 0 || o.DMRGE <= 0 {
			t.Errorf("V=%d: non-positive areas %+v", o.Params.VCs, o)
		}
	}
	// DMR grows steeply with VCs (paper: 5.41% → 31.32%, a 5.8× climb);
	// NoCAlert stays roughly flat (paper: "fairly constant").
	first, last := sweep[0], sweep[3]
	if last.DMRPct < 3*first.DMRPct {
		t.Errorf("DMR growth %.2f%% -> %.2f%% not steep enough", first.DMRPct, last.DMRPct)
	}
	if last.NoCAlertPct > 2*first.NoCAlertPct {
		t.Errorf("NoCAlert overhead not flat: %.2f%% -> %.2f%%", first.NoCAlertPct, last.NoCAlertPct)
	}
	// At 8 VCs the paper's gap is ~7× (31.32 vs 4.42).
	if ratio := last.DMRPct / last.NoCAlertPct; ratio < 4 {
		t.Errorf("DMR/NoCAlert ratio at 8 VCs = %.1f, want >= 4", ratio)
	}
}

// TestPowerBand: the checkers are combinational, so their power
// overhead sits below their area overhead and within the paper's
// 0.3%–1.2% band.
func TestPowerBand(t *testing.T) {
	for _, v := range []int{2, 4, 6, 8} {
		p := paperParams(v)
		_, _, pw := Power(p)
		area := AreaOverhead(p).NoCAlertPct
		if pw <= 0 || pw > 1.5 {
			t.Errorf("V=%d: power overhead %.2f%% outside the paper band", v, pw)
		}
		if pw >= area {
			t.Errorf("V=%d: power overhead %.2f%% not below area overhead %.2f%%", v, pw, area)
		}
	}
}

// TestCriticalPathBand: the paper reports <=3%, ~1% average.
func TestCriticalPathBand(t *testing.T) {
	total := 0.0
	for _, v := range []int{2, 4, 6, 8} {
		base, with, pct := CriticalPath(paperParams(v))
		if with <= base {
			t.Errorf("V=%d: checker tap added no load", v)
		}
		if pct <= 0 || pct > 3 {
			t.Errorf("V=%d: critical-path overhead %.2f%% outside the paper band", v, pct)
		}
		total += pct
	}
	if avg := total / 4; avg > 2 {
		t.Errorf("average critical-path overhead %.2f%%, paper reports ~1%%", avg)
	}
}

// TestCheckersLinearArbitersPolynomial pins the paper's Figure 4
// argument quantitatively: doubling the VC count must grow the checker
// fabric far slower than the allocators it guards.
func TestCheckersLinearArbitersPolynomial(t *testing.T) {
	a4, a8 := Router(paperParams(4)), Router(paperParams(8))
	c4, c8 := Checkers(paperParams(4)), Checkers(paperParams(8))
	arbGrowth := a8.VA / a4.VA
	chkGrowth := c8.Total() / c4.Total()
	if arbGrowth <= chkGrowth {
		t.Errorf("allocator growth %.2fx not above checker growth %.2fx", arbGrowth, chkGrowth)
	}
}

// TestAreaBreakdownConsistency: subtotals add up.
func TestAreaBreakdownConsistency(t *testing.T) {
	a := Router(paperParams(4))
	if a.Total() != a.Datapath()+a.Control() {
		t.Fatal("Total != Datapath + Control")
	}
	if a.Buffers <= 0 || a.Crossbar <= 0 || a.VA <= 0 || a.SA <= 0 {
		t.Fatalf("non-positive components: %+v", a)
	}
	if a.Buffers < a.Control() {
		t.Error("buffers should dominate a 128-bit 4-VC router")
	}
	c := Checkers(paperParams(4))
	sum := c.RCCheckers + c.ArbiterCheckers + c.XbarCheckers + c.StateCheckers + c.PortCheckers + c.E2ECheckers
	if c.Total() != sum {
		t.Fatal("checker Total mismatch")
	}
}

func TestValidate(t *testing.T) {
	if err := paperParams(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Ports: 1, VCs: 4, BufDepth: 5, FlitWidth: 128},
		{Ports: 5, VCs: 0, BufDepth: 5, FlitWidth: 128},
		{Ports: 5, VCs: 4, BufDepth: 0, FlitWidth: 128},
		{Ports: 5, VCs: 4, BufDepth: 5, FlitWidth: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
}

func TestCustomSweep(t *testing.T) {
	sweep := fig10Sweep([]int{3, 5})
	if len(sweep) != 2 || sweep[0].Params.VCs != 3 || sweep[1].Params.VCs != 5 {
		t.Fatalf("custom sweep wrong: %+v", sweep)
	}
}
