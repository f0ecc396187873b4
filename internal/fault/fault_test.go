package fault

import (
	"testing"

	"nocalert/internal/topology"
)

func params44() Params {
	return Params{Mesh: topology.NewMesh(4, 4), VCs: 4, BufDepth: 5}
}

func TestKindNamesAndClasses(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Errorf("kind %d has no name: %q", int(k), k.String())
		}
	}
	regs := map[Kind]bool{VCStateReg: true, VCRouteReg: true, VCOutVCReg: true, CreditCountReg: true}
	for k := Kind(0); k < numKinds; k++ {
		if k.IsRegister() != regs[k] {
			t.Errorf("%v.IsRegister() = %v", k, k.IsRegister())
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 3, 8: 4}
	for in, want := range cases {
		if got := BitsFor(in); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestSiteEnumerationEdgeReduction: corner and edge routers contribute
// fewer sites, the effect behind the paper's 11,808 total.
func TestSiteEnumerationEdgeReduction(t *testing.T) {
	p := params44()
	corner := p.EnumerateRouterSites(0)                  // 3 ports
	edge := p.EnumerateRouterSites(1)                    // 4 ports
	inner := p.EnumerateRouterSites(p.Mesh.NodeAt(1, 1)) // 5 ports
	if !(len(corner) < len(edge) && len(edge) < len(inner)) {
		t.Fatalf("site counts not ordered: corner=%d edge=%d inner=%d",
			len(corner), len(edge), len(inner))
	}
	// Per-port site count must be uniform: counts scale with ports.
	if len(corner)*5 != len(inner)*3 {
		t.Errorf("per-port site count not uniform: %d*5 != %d*3", len(corner), len(inner))
	}
}

// TestPaperScaleBitCount documents our fault-location count at the
// paper's scale (the paper reports 205 per 5-port router / 11,808 per
// 8×8 mesh at its RTL granularity; our signal set differs but must be
// in the same regime and exactly reproducible).
func TestPaperScaleBitCount(t *testing.T) {
	countBits := func(p Params) int {
		n := 0
		for _, s := range p.EnumerateSites() {
			n += s.Width
		}
		return n
	}
	p := Params{Mesh: topology.NewMesh(8, 8), VCs: 4, BufDepth: 5}
	bits := countBits(p)
	interior := p.EnumerateRouterSites(p.Mesh.NodeAt(3, 3))
	perRouter := 0
	for _, s := range interior {
		perRouter += s.Width
	}
	t.Logf("8x8 mesh: %d fault bits total, %d per interior router", bits, perRouter)
	if perRouter < 150 || perRouter > 800 {
		t.Errorf("per-router bit count %d outside the expected regime", perRouter)
	}
	if bits < 64*150*3/5 {
		t.Errorf("mesh-wide count %d implausibly small", bits)
	}
	// Exact reproducibility.
	if again := countBits(p); again != bits {
		t.Errorf("bit count not deterministic: %d vs %d", bits, again)
	}
}

func TestSiteWidthsAndPorts(t *testing.T) {
	p := params44()
	for _, s := range p.EnumerateSites() {
		if s.Width <= 0 || s.Width > 32 {
			t.Fatalf("site %v has width %d", s, s.Width)
		}
		if s.Port < 0 || s.Port >= int(topology.NumPorts) {
			t.Fatalf("site %v has port %d", s, s.Port)
		}
		if !p.Mesh.HasPort(s.Router, topology.Direction(s.Port)) {
			t.Fatalf("site %v on a missing port", s)
		}
		if s.VC >= p.VCs {
			t.Fatalf("site %v has VC %d of %d", s, s.VC, p.VCs)
		}
	}
}

func TestBitFaults(t *testing.T) {
	s := Site{Router: 3, Kind: SA1Gnt, Port: 2, VC: -1, Width: 4}
	fs := BitFaults(s, 100, Transient)
	if len(fs) != 4 {
		t.Fatalf("got %d faults", len(fs))
	}
	for i, f := range fs {
		if f.Bit != i || f.Cycle != 100 || f.Type != Transient || f.Site != s {
			t.Fatalf("fault %d malformed: %v", i, &f)
		}
	}
}

func TestActiveAt(t *testing.T) {
	s := Site{Kind: SA1Gnt, Width: 4}
	tr := Fault{Site: s, Cycle: 10, Type: Transient}
	if tr.ActiveAt(9) || !tr.ActiveAt(10) || tr.ActiveAt(11) {
		t.Error("transient window wrong")
	}
	pm := Fault{Site: s, Cycle: 10, Type: Permanent}
	if pm.ActiveAt(9) || !pm.ActiveAt(10) || !pm.ActiveAt(1e6) {
		t.Error("permanent window wrong")
	}
	in := Fault{Site: s, Cycle: 10, Type: Intermittent, Period: 4, Duty: 2}
	want := map[int64]bool{10: true, 11: true, 12: false, 13: false, 14: true, 15: true, 16: false}
	for c, w := range want {
		if in.ActiveAt(c) != w {
			t.Errorf("intermittent ActiveAt(%d) = %v", c, !w)
		}
	}
}

func TestPlaneVecAndWord(t *testing.T) {
	s := Site{Router: 1, Kind: SA1Gnt, Port: 0, VC: -1, Width: 4}
	p := NewPlane(Fault{Site: s, Bit: 2, Cycle: 5, Type: Transient})

	// Wrong cycle, router, kind, port: untouched.
	if p.Vec(4, 1, SA1Gnt, 0, -1, 0b0001) != 0b0001 {
		t.Error("fired before injection cycle")
	}
	if p.Vec(5, 2, SA1Gnt, 0, -1, 0b0001) != 0b0001 {
		t.Error("fired on wrong router")
	}
	if p.Vec(5, 1, SA1Req, 0, -1, 0b0001) != 0b0001 {
		t.Error("fired on wrong kind")
	}
	if p.Vec(5, 1, SA1Gnt, 1, -1, 0b0001) != 0b0001 {
		t.Error("fired on wrong port")
	}
	if p.FiredAt(0) != -1 {
		t.Error("FiredAt set by non-matching queries")
	}
	// Exact match: bit 2 XORed, firing recorded.
	if got := p.Vec(5, 1, SA1Gnt, 0, -1, 0b0001); got != 0b0101 {
		t.Errorf("faulted vec = %b", got)
	}
	if p.FiredAt(0) != 5 {
		t.Errorf("FiredAt = %d", p.FiredAt(0))
	}
	// Transient: next cycle clean.
	if p.Vec(6, 1, SA1Gnt, 0, -1, 0b0001) != 0b0001 {
		t.Error("transient persisted")
	}
}

func TestNilPlaneIsIdentity(t *testing.T) {
	var p *Plane
	if p.Vec(0, 0, SA1Gnt, 0, -1, 7) != 7 || p.Word(0, 0, RCOutDir, 0, -1, 3) != 3 {
		t.Error("nil plane mutated a signal")
	}
	if p.Faults() != nil || p.FiredAt(0) != -1 || p.Clone() != nil {
		t.Error("nil plane accessors broken")
	}
	if p.TransientRegisterFlips(0, 0) != nil {
		t.Error("nil plane returned register flips")
	}
}

func TestTransientRegisterFlipsNotOnReadPath(t *testing.T) {
	s := Site{Router: 0, Kind: VCStateReg, Port: 0, VC: 1, Width: 3}
	p := NewPlane(Fault{Site: s, Bit: 1, Cycle: 7, Type: Transient})
	// Read path untouched even at the injection cycle.
	if p.Word(7, 0, VCStateReg, 0, 1, 2) != 2 {
		t.Error("transient register fault leaked onto the read path")
	}
	flips := p.TransientRegisterFlips(7, 0)
	if len(flips) != 1 || flips[0].Bit != 1 {
		t.Fatalf("flips = %v", flips)
	}
	if p.FiredAt(0) != 7 {
		t.Error("register flip not marked fired")
	}
	if len(p.TransientRegisterFlips(8, 0)) != 0 {
		t.Error("register flip applied twice")
	}
}

func TestPermanentRegisterFaultOnReadPath(t *testing.T) {
	s := Site{Router: 0, Kind: CreditCountReg, Port: 2, VC: 0, Width: 3}
	p := NewPlane(Fault{Site: s, Bit: 0, Cycle: 3, Type: Permanent})
	if p.Word(2, 0, CreditCountReg, 2, 0, 5) != 5 {
		t.Error("permanent fault fired early")
	}
	if p.Word(3, 0, CreditCountReg, 2, 0, 5) != 4 {
		t.Error("permanent register fault not applied on read")
	}
	if p.Word(1000, 0, CreditCountReg, 2, 0, 5) != 4 {
		t.Error("permanent register fault not persistent")
	}
}

func TestPlaneClone(t *testing.T) {
	s := Site{Router: 1, Kind: SA1Gnt, Port: 0, VC: -1, Width: 4}
	p := NewPlane(Fault{Site: s, Bit: 0, Cycle: 5, Type: Transient})
	c := p.Clone()
	p.Vec(5, 1, SA1Gnt, 0, -1, 0)
	if p.FiredAt(0) != 5 {
		t.Fatal("original did not fire")
	}
	if c.FiredAt(0) != -1 {
		t.Fatal("clone shares firing state")
	}
}

func TestMultipleFaultsCompose(t *testing.T) {
	s := Site{Router: 0, Kind: BufWrite, Port: 4, VC: -1, Width: 4}
	p := NewPlane(
		Fault{Site: s, Bit: 0, Cycle: 2, Type: Transient},
		Fault{Site: s, Bit: 3, Cycle: 2, Type: Transient},
	)
	if got := p.Vec(2, 0, BufWrite, 4, -1, 0); got != 0b1001 {
		t.Fatalf("composed mask = %b", got)
	}
}

// BenchmarkFaultSiteEnumeration measures the fault-model enumerator at
// paper scale: the 8×8 mesh with 4 VCs and 5-flit buffers.
func BenchmarkFaultSiteEnumeration(b *testing.B) {
	params := Params{Mesh: topology.NewMesh(8, 8), VCs: 4, BufDepth: 5}
	for b.Loop() {
		params.EnumerateSites()
	}
}
