package fault

import (
	"fmt"
	"math"
	"testing"
)

// TestWhatCloses holds the plane's three predicates about a fault's end —
// its windows (LiveFor), Quiescent and Inert — to one answer per fault,
// Fault.lastActive, and that answer to ActiveAt on every cycle of a short
// range: the three types, with and without a period, before, on and after
// the injection cycle. A one-shot intermittent (no period) closes like a
// transient; NewPlane always said so, Quiescent and Inert used to call it
// armed for ever.
func TestWhatCloses(t *testing.T) {
	const strike, never = 10, math.MaxInt64
	site := Site{Router: 5, Kind: SA1Gnt, Port: 0, VC: -1, Width: 4}
	for _, tc := range []struct {
		typ          Type
		period, duty int64
		last         int64
	}{
		{Transient, 0, 0, strike},
		{Transient, 4, 2, strike}, // period ignored
		{Permanent, 0, 0, never},
		{Permanent, 4, 2, never},
		{Intermittent, 0, 0, strike},
		{Intermittent, -3, 1, strike},
		{Intermittent, 4, 2, never},
		{Intermittent, 1, 1, never},
	} {
		f := Fault{Site: site, Bit: 1, Cycle: strike, Type: tc.typ, Period: tc.period, Duty: tc.duty}
		t.Run(fmt.Sprintf("%s/period%d", tc.typ, tc.period), func(t *testing.T) {
			if got := f.lastActive(); got != tc.last {
				t.Fatalf("lastActive() = %d, want %d", got, tc.last)
			}
			p := NewPlane(f)
			sawActive := false
			for c := int64(0); c < 40; c++ {
				open := c >= strike && c <= tc.last
				if f.ActiveAt(c) && !open {
					t.Errorf("cycle %d: ActiveAt outside [%d, lastActive %d]", c, strike, tc.last)
				}
				sawActive = sawActive || f.ActiveAt(c)
				if got := p.LiveFor(c, site.Router); got != open {
					t.Errorf("cycle %d: LiveFor = %t, want %t", c, got, open)
				}
				if got := p.Quiescent(c); got != (c > tc.last) {
					t.Errorf("cycle %d: Quiescent = %t, want %t", c, got, c > tc.last)
				}
				if got := p.Inert(c); got != (c > tc.last) {
					t.Errorf("cycle %d: Inert (never consulted) = %t, want %t", c, got, c > tc.last)
				}
			}
			if !sawActive || !f.ActiveAt(strike) {
				t.Error("the fault was never active: the table checks nothing")
			}

			// Consulted on every cycle, the fault fires on its strike cycle;
			// a fired plane is never inert, and quiescent as before.
			for c := int64(0); c < 40; c++ {
				p.Vec(c, site.Router, site.Kind, site.Port, site.VC, 0)
			}
			if p.FiredAt(0) != strike {
				t.Fatalf("FiredAt = %d, want %d", p.FiredAt(0), strike)
			}
			if p.Inert(39) {
				t.Error("a fired plane reports inert")
			}
			if got := p.Quiescent(39); got != (39 > tc.last) {
				t.Errorf("Quiescent after firing = %t, want %t", got, 39 > tc.last)
			}
		})
	}
}

// TestPlaneRouterWindows pins LiveFor, the one liveness query: a router
// is live from the first injection cycle of the faults it hosts to the
// last cycle any of them can be active, and a router that hosts none is
// never live, whatever is armed elsewhere.
func TestPlaneRouterWindows(t *testing.T) {
	at := func(router int) Site { return Site{Router: router, Kind: CreditCountReg, Port: 1, VC: 0, Width: 3} }
	type probe struct {
		cycle  int64
		router int
		live   bool
	}
	far := int64(math.MaxInt64)
	for _, tc := range []struct {
		name   string
		plane  *Plane
		probes []probe
	}{
		{"nil", nil, []probe{{0, 0, false}, {5, 3, false}, {far, 0, false}}},
		{"empty", NewPlane(), []probe{{0, 0, false}, {5, 3, false}, {far, 0, false}}},
		{"zero value", &Plane{}, []probe{{1, 0, false}}},
		{"single router", NewPlane(
			Fault{Site: at(3), Cycle: 20, Type: Transient},
			Fault{Site: at(3), Cycle: 26, Type: Transient},
		), []probe{
			{19, 3, false}, {20, 3, true}, {23, 3, true}, {26, 3, true}, {27, 3, false},
			{20, 2, false}, {23, 4, false},
		}},
		{"transient and permanent", NewPlane(
			Fault{Site: at(3), Cycle: 20, Type: Transient},
			Fault{Site: at(9), Cycle: 50, Type: Permanent},
		), []probe{
			{19, 3, false}, {20, 3, true}, {21, 3, false}, {50, 3, false}, {far, 3, false},
			{20, 9, false}, {49, 9, false}, {50, 9, true}, {100000, 9, true}, {far, 9, true},
			{20, 0, false}, {50, 0, false}, {far, 0, false}, {50, 10, false},
		}},
		{"periodic intermittent", NewPlane(
			Fault{Site: at(6), Cycle: 30, Type: Intermittent, Period: 8, Duty: 2},
		), []probe{
			// Armed from its onset on, the gaps between strikes included.
			{29, 6, false}, {30, 6, true}, {35, 6, true}, {far, 6, true}, {30, 5, false},
		}},
		{"one-shot intermittent beside a permanent", NewPlane(
			Fault{Site: at(6), Cycle: 30, Type: Intermittent},
			Fault{Site: at(6), Cycle: 12, Type: Transient},
			Fault{Site: at(7), Cycle: 40, Type: Permanent},
		), []probe{
			{11, 6, false}, {12, 6, true}, {30, 6, true}, {31, 6, false}, {far, 6, false},
			{39, 7, false}, {40, 7, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []*Plane{tc.plane, tc.plane.Clone()} {
				for _, pr := range tc.probes {
					if got := p.LiveFor(pr.cycle, pr.router); got != pr.live {
						t.Errorf("LiveFor(%d, router %d) = %t, want %t", pr.cycle, pr.router, got, pr.live)
					}
				}
			}
		})
	}
}

// TestLiveForCoversEveryConsult is the exactness argument as a test:
// whenever the plane hands a router anything but "no fault" — a mask from
// Vec or Word, a register flip — LiveFor was true for that router on that
// cycle, so a router that skips its consults while LiveFor is false reads
// what it would have read.
func TestLiveForCoversEveryConsult(t *testing.T) {
	p := params44()
	sites := p.EnumerateSites()
	var faults []Fault
	for i := 0; i < 24; i++ {
		s := sites[(i*7919)%len(sites)]
		f := Fault{Site: s, Bit: i % s.Width, Cycle: int64(5 + i%7), Type: Type(i % 3)}
		if f.Type == Intermittent && i%2 == 0 {
			f.Period, f.Duty = int64(2+i%5), 1
		}
		faults = append(faults, f)
	}
	plane := NewPlane(faults...)
	hits := 0
	for c := int64(0); c < 30; c++ {
		for _, s := range sites {
			touched := plane.Vec(c, s.Router, s.Kind, s.Port, s.VC, 0) != 0 ||
				len(plane.TransientRegisterFlips(c, s.Router)) != 0
			if touched {
				hits++
				if !plane.LiveFor(c, s.Router) {
					t.Fatalf("cycle %d: the plane faulted %v while LiveFor(%d, %d) is false", c, s, c, s.Router)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no consult was ever faulted")
	}
}
