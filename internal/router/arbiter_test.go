package router

import (
	"testing"

	"nocalert/internal/bitvec"
	"nocalert/internal/topology"
)

// rrArbitrate is the arbiter of VA1, VA2, SA1 and SA2. The tests below hold
// it to what the NoCAlert arbiter checkers (invariances 4–6) take a healthy
// arbiter to be, and to round-robin fairness.

// TestArbiterContract: for every request vector and pointer, a healthy
// arbiter grants exactly one requester when requests exist and nothing
// otherwise, and its pointer moves to the client after the winner, or not
// at all.
func TestArbiterContract(t *testing.T) {
	for _, width := range []int{P, 4, MaxVCs} {
		for next := int32(0); next < int32(width); next++ {
			for raw := 0; raw < 1<<width; raw++ {
				req := bitvec.Vec(raw)
				n := next
				gnt := rrArbitrate(req, width, &n)
				switch {
				case req.IsZero() && (!gnt.IsZero() || n != next):
					t.Fatalf("width %d pointer %d: no request, grant %s, pointer %d", width, next, gnt, n)
				case !req.IsZero() && (gnt.Count() != 1 || !(gnt &^ req).IsZero()):
					t.Fatalf("width %d pointer %d: request %s, grant %s", width, next, req, gnt)
				case !req.IsZero() && int(n) != (gnt.First()+1)%width:
					t.Fatalf("width %d pointer %d: grant %s left the pointer at %d", width, next, gnt, n)
				}
			}
		}
	}
}

// TestRoundRobinFairness: under full contention every client is served
// equally.
func TestRoundRobinFairness(t *testing.T) {
	for _, w := range []int{4, P} {
		var next int32
		counts := make([]int, w)
		for i := 0; i < 1000*w; i++ {
			counts[rrArbitrate(bitvec.Mask(w), w, &next).First()]++
		}
		for i, c := range counts {
			if c != 1000 {
				t.Errorf("width %d: client %d served %d times, want 1000", w, i, c)
			}
		}
	}
}

// TestNoStarvation: a persistent requester is served with a competing
// always-on requester, whatever the pointer.
func TestNoStarvation(t *testing.T) {
	for start := int32(0); start < 4; start++ {
		next, served := start, false
		for i := 0; i < 2 && !served; i++ {
			served = rrArbitrate(bitvec.New(1, 3), 4, &next).Get(3)
		}
		if !served {
			t.Errorf("pointer %d: client 3 starved", start)
		}
	}
}

func TestSingleRequester(t *testing.T) {
	var next int32
	for i := 0; i < 6; i++ {
		if g := rrArbitrate(bitvec.New(i), 6, &next); !g.Get(i) || g.Count() != 1 {
			t.Errorf("sole requester %d got grant %s", i, g)
		}
	}
}

func TestOutOfWidthRequestsIgnored(t *testing.T) {
	next := int32(1)
	if g := rrArbitrate(bitvec.New(5, 9), 3, &next); !g.IsZero() || next != 1 {
		t.Errorf("granted out-of-width request: %s, pointer %d", g, next)
	}
}

// TestCloneIndependence: an arbiter's state is its priority pointer, which
// lives in the router's register file. A clone of a router carries every
// pointer, replays the same grants, and arbitrating on the clone moves none
// of the original's.
func TestCloneIndependence(t *testing.T) {
	r, _ := busyRouter(t, 6)
	c := r.Clone(nil)
	banks := func(x *Router) [4][]int32 { return [4][]int32{x.st.VA1Next, x.st.SA1Next, x.st.VA2Next, x.st.SA2Next} }
	var orig [4][P]int32
	for k, ps := range banks(r) {
		orig[k] = [P]int32(ps)
	}
	if banks := banks(c); [...][P]int32{[P]int32(banks[0]), [P]int32(banks[1]), [P]int32(banks[2]), [P]int32(banks[3])} != orig {
		t.Fatalf("the clone's pointers are %v, the original's %v", banks, orig)
	}
	east := int(topology.East)
	next := orig[3][east]
	for i := 0; i < 3; i++ { // three grants of five: the pointer ends elsewhere
		want := rrArbitrate(bitvec.Mask(P), P, &next)
		if got := rrArbitrate(bitvec.Mask(P), P, &c.st.SA2Next[east]); got != want {
			t.Fatalf("round %d: the clone granted %s, the original's pointer grants %s", i, got, want)
		}
	}
	for k, ps := range banks(r) {
		if [P]int32(ps) != orig[k] {
			t.Fatalf("arbitrating on the clone moved the original's pointers: bank %d is %v, was %v", k, ps, orig[k])
		}
	}
}
