package fault

import (
	"fmt"
	"math"
	"testing"

	"nocalert/internal/rng"
)

// TestStationary pins Plane.Stationary, the fast-forward's gate: a plane
// is stationary from the cycle on which its last one-shot has closed and
// its last permanent fault is armed, and never while it hosts a periodic
// intermittent fault. from is that cycle (never: math.MaxInt64); the
// answer is checked on every cycle of a range around it, which also makes
// it monotone, on the plane and on its clone.
func TestStationary(t *testing.T) {
	const never = math.MaxInt64
	s := Site{Router: 5, Kind: SA1Gnt, Port: 0, VC: -1, Width: 4}
	reg := Site{Router: 6, Kind: CreditCountReg, Port: 1, VC: 0, Width: 3}
	for _, tc := range []struct {
		name  string
		plane *Plane
		from  int64
	}{
		{"nil", nil, math.MinInt64},
		{"empty", NewPlane(), math.MinInt64},
		// False before and at its cycle, true after it.
		{"transient", NewPlane(Fault{Site: s, Cycle: 10, Type: Transient}), 11},
		{"transient register", NewPlane(Fault{Site: reg, Cycle: 10, Type: Transient}), 11},
		{"one-shot intermittent", NewPlane(Fault{Site: s, Cycle: 10, Type: Intermittent}), 11},
		{"periodic intermittent", NewPlane(Fault{Site: s, Cycle: 10, Type: Intermittent, Period: 4, Duty: 2}), never},
		{"always-on intermittent", NewPlane(Fault{Site: s, Cycle: 10, Type: Intermittent, Period: 1, Duty: 1}), never},
		// False before its cycle, true from it.
		{"permanent", NewPlane(Fault{Site: s, Cycle: 10, Type: Permanent}), 10},
		{"permanent register", NewPlane(Fault{Site: reg, Cycle: 10, Type: Permanent}), 10},
		{"permanent then transient", NewPlane(
			Fault{Site: s, Cycle: 10, Type: Permanent},
			Fault{Site: reg, Cycle: 14, Type: Transient},
		), 15},
		{"transient then permanent", NewPlane(
			Fault{Site: reg, Cycle: 10, Type: Transient},
			Fault{Site: s, Cycle: 14, Type: Permanent},
		), 14},
		{"two permanents", NewPlane(
			Fault{Site: s, Cycle: 12, Type: Permanent},
			Fault{Site: reg, Cycle: 18, Type: Permanent},
		), 18},
		{"permanent beside a periodic intermittent", NewPlane(
			Fault{Site: s, Cycle: 10, Type: Permanent},
			Fault{Site: reg, Cycle: 10, Type: Intermittent, Period: 8, Duty: 1},
		), never},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []*Plane{tc.plane, tc.plane.Clone()} {
				for _, c := range []int64{math.MinInt64, -1, math.MaxInt64 - 1} {
					if got := p.Stationary(c); got != (c >= tc.from) {
						t.Errorf("Stationary(%d) = %t, want %t", c, got, c >= tc.from)
					}
				}
				for c := int64(0); c < 40; c++ {
					if got := p.Stationary(c); got != (c >= tc.from) {
						t.Errorf("Stationary(%d) = %t, want %t", c, got, c >= tc.from)
					}
					if p.Quiescent(c) && !p.Stationary(c) {
						t.Errorf("cycle %d: quiescent and not stationary", c)
					}
				}
			}
		})
	}
}

// TestStationaryPlaneAnswersAlike is what Stationary promises, as a test:
// from a stationary cycle on, every consult of every site gets the answer
// it got the cycle before, and once every site has been consulted on one
// such cycle no FiredAt stamp moves again.
func TestStationaryPlaneAnswersAlike(t *testing.T) {
	sites := params44().EnumerateSites()
	g := rng.New(7, 0x57a7)
	armed := 0
	for trial := 0; trial < 40; trial++ {
		var faults []Fault
		for i, n := 0, 1+g.Intn(3); i < n; i++ {
			s := sites[g.Intn(len(sites))]
			f := Fault{Site: s, Bit: g.Intn(s.Width), Cycle: int64(3 + g.Intn(8)), Type: Type(g.Intn(3))}
			if f.Type == Intermittent && g.Intn(2) == 0 {
				f.Period = 0 // a one-shot
			} else if f.Type == Intermittent {
				f.Period, f.Duty = int64(2+g.Intn(4)), 1
			}
			faults = append(faults, f)
		}
		p := NewPlane(faults...)
		var from int64 = -1
		for c := int64(0); c < 20 && from < 0; c++ {
			if p.Stationary(c) {
				from = c
			}
		}
		if from < 0 {
			continue // a periodic intermittent: never
		}
		consult := func(c int64) []uint32 {
			var out []uint32
			for _, f := range faults {
				s := f.Site
				out = append(out, p.Vec(c, s.Router, s.Kind, s.Port, s.VC, 0), uint32(len(p.TransientRegisterFlips(c, s.Router))))
			}
			return out
		}
		want := consult(from)
		fired := append([]int64(nil), p.firedAt...)
		if !p.Quiescent(from) {
			armed++
		}
		for c := from + 1; c < from+12; c++ {
			if got := consult(c); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%v): consults at cycle %d answer %v, at stationary cycle %d %v", trial, faults, c, got, from, want)
			}
			if fmt.Sprint(p.firedAt) != fmt.Sprint(fired) {
				t.Fatalf("trial %d (%v): FiredAt moved from %v to %v at cycle %d, past stationary cycle %d", trial, faults, fired, p.firedAt, c, from)
			}
		}
	}
	if armed < 5 {
		t.Fatalf("%d planes stationary with a permanent fault armed: the comparison is vacuous", armed)
	}
}

// refConsult is the consult as the package comment specifies it, scanned
// without the plane's gates (global window, kind mask): the XOR mask of
// the faults on the addressed signal that are active at cycle — transient
// register upsets excepted, which strike through TransientRegisterFlips —
// and the first-strike stamps in firedAt.
func refConsult(faults []Fault, firedAt []int64, cycle int64, router int, kind Kind, port, vc int) uint32 {
	var mask uint32
	for i := range faults {
		f := &faults[i]
		if f.Site.Router != router || f.Site.Kind != kind || f.Site.Port != port || f.Site.VC != vc {
			continue
		}
		if (f.Type == Transient && kind.IsRegister()) || !f.ActiveAt(cycle) {
			continue
		}
		mask |= 1 << uint(f.Bit)
		if firedAt[i] < 0 {
			firedAt[i] = cycle
		}
	}
	return mask
}

// TestConsultsMatchReferenceScan holds Word and Vec, behind their window
// and kind-mask gates, to the ungated scan: random planes of one to four
// faults of every type, consulted in a random order at every fault's site
// and at sites of kinds the plane does not host, over the cycles around
// the injections. Values and FiredAt must agree after every consult, and
// a consult of an unhosted kind must stamp nothing.
func TestConsultsMatchReferenceScan(t *testing.T) {
	sites := params44().EnumerateSites()
	g := rng.New(11, 0xc0de)
	hits, unhosted := 0, 0
	for trial := 0; trial < 200; trial++ {
		var faults []Fault
		hosted := map[Kind]bool{}
		for i, n := 0, 1+g.Intn(4); i < n; i++ {
			s := sites[g.Intn(len(sites))]
			f := Fault{Site: s, Bit: g.Intn(s.Width), Cycle: int64(2 + g.Intn(6)), Type: Type(g.Intn(3))}
			if f.Type == Intermittent && g.Intn(3) > 0 {
				f.Period = int64(1 + g.Intn(4))
				f.Duty = 1 + int64(g.Intn(int(f.Period)))
			}
			faults = append(faults, f)
			hosted[s.Kind] = true
		}
		p := NewPlane(faults...)
		if trial%2 == 1 {
			p = p.Clone()
		}
		want := make([]int64, len(faults))
		for i := range want {
			want[i] = -1
		}
		for n := 0; n < 120; n++ {
			c := int64(g.Intn(14))
			var s Site
			if g.Intn(3) > 0 {
				s = faults[g.Intn(len(faults))].Site
			} else {
				s = sites[g.Intn(len(sites))]
			}
			before := fmt.Sprint(p.firedAt)
			m := refConsult(faults, want, c, s.Router, s.Kind, s.Port, s.VC)
			value := g.Intn(1 << uint(s.Width))
			if n%2 == 0 {
				if got := p.Vec(c, s.Router, s.Kind, s.Port, s.VC, uint32(value)); got != uint32(value)^m {
					t.Fatalf("trial %d (%v): Vec(%d, %v, %#x) = %#x, reference mask %#x", trial, faults, c, s, value, got, m)
				}
			} else if got := p.Word(c, s.Router, s.Kind, s.Port, s.VC, value); got != int(uint32(value)^m) {
				t.Fatalf("trial %d (%v): Word(%d, %v, %#x) = %#x, reference mask %#x", trial, faults, c, s, value, got, m)
			}
			if fmt.Sprint(p.firedAt) != fmt.Sprint(want) {
				t.Fatalf("trial %d (%v): after a consult of %v at cycle %d FiredAt is %v, the reference scan's %v", trial, faults, s, c, p.firedAt, want)
			}
			if m != 0 {
				hits++
			}
			if !hosted[s.Kind] {
				unhosted++
				if m != 0 || fmt.Sprint(p.firedAt) != before {
					t.Fatalf("trial %d (%v): a consult of %v, a kind the plane does not host, faulted or stamped", trial, faults, s)
				}
			}
		}
	}
	if hits < 100 || unhosted < 100 {
		t.Fatalf("%d faulted consults and %d of unhosted kinds: the comparison is vacuous", hits, unhosted)
	}
}
