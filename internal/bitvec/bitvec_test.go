package bitvec

import (
	"testing"
	"testing/quick"
)

func TestSetGetClearFlip(t *testing.T) {
	var v Vec
	v = v.Set(3)
	if !v.Get(3) || v.Get(2) {
		t.Fatalf("Set/Get broken: %s", v)
	}
	v = v.Set(0).Set(5)
	if !v.Get(0) || !v.Get(5) || v.Count() != 3 {
		t.Fatalf("Set broken: %s", v)
	}
}

func TestNew(t *testing.T) {
	v := New(0, 2, 4)
	if v != 0b10101 {
		t.Fatalf("New(0,2,4) = %s", v)
	}
	if New() != 0 {
		t.Fatal("New() should be zero")
	}
}

func TestCountAndBits(t *testing.T) {
	v := New(1, 3, 7, 30)
	if v.Count() != 4 {
		t.Fatalf("Count = %d", v.Count())
	}
	bits := setBits(v)
	want := []int{1, 3, 7, 30}
	if len(bits) != len(want) {
		t.Fatalf("set bits %v", bits)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("set bits %v, want %v", bits, want)
		}
	}
}

func TestOneHot(t *testing.T) {
	cases := []struct {
		v      Vec
		atMost bool
	}{
		{0, true},
		{New(0), true},
		{New(7), true},
		{New(0, 1), false},
		{New(2, 9, 17), false},
	}
	for _, c := range cases {
		if got := c.v.AtMostOneHot(); got != c.atMost {
			t.Errorf("%s.AtMostOneHot() = %v", c.v, got)
		}
	}
}

func TestFirst(t *testing.T) {
	if Vec(0).First() != -1 {
		t.Fatal("First of zero vector should be -1")
	}
	if New(5, 9).First() != 5 {
		t.Fatal("First should return lowest set bit")
	}
}

func TestMaskAndInWidth(t *testing.T) {
	if Mask(0) != 0 || Mask(3) != 0b111 || Mask(32) != Vec(^uint32(0)) {
		t.Fatal("Mask broken")
	}
}

func TestString(t *testing.T) {
	if Vec(0).String() != "0" {
		t.Fatalf("zero renders %q", Vec(0).String())
	}
	if New(0, 2).String() != "101" {
		t.Fatalf("101 renders %q", New(0, 2).String())
	}
}

func TestIndexPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Vec(0).Set(-1) },
		func() { Vec(0).Get(32) },
		func() { Mask(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// setBits returns the indices NextBit walks v through, ascending.
func setBits(v Vec) []int {
	var out []int
	for w := v; !w.IsZero(); {
		var i int
		i, w = w.NextBit()
		out = append(out, i)
	}
	return out
}

// Property: Count equals the number of bits NextBit walks through, and
// every index it yields is set.
func TestCountBitsAgree(t *testing.T) {
	f := func(raw uint32) bool {
		v := Vec(raw)
		bits := setBits(v)
		if len(bits) != v.Count() {
			return false
		}
		for _, b := range bits {
			if !v.Get(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AtMostOneHot agrees with Count <= 1.
func TestOneHotAgreesWithCount(t *testing.T) {
	f := func(raw uint32) bool {
		v := Vec(raw)
		return v.AtMostOneHot() == (v.Count() <= 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
