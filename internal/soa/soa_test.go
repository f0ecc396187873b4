package soa

import "testing"

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestNewStateValidation(t *testing.T) {
	mustPanic(t, "zero routers", func() { NewState(Layout{R: 0, P: 5, V: 4}) })
	mustPanic(t, "zero ports", func() { NewState(Layout{R: 1, P: 0, V: 4}) })
	mustPanic(t, "zero VCs", func() { NewState(Layout{R: 1, P: 5, V: 0}) })
	mustPanic(t, "VCs over the mask word", func() { NewState(Layout{R: 1, P: 5, V: 33}) })
}

func TestViewGeometry(t *testing.T) {
	l := Layout{R: 3, P: 5, V: 4}
	st := NewState(l)
	for r := 0; r < l.R; r++ {
		v := st.View(r)
		if v.P != l.P || v.V != l.V {
			t.Fatalf("view %d geometry %dx%d", r, v.P, v.V)
		}
		if len(v.VCState) != l.P*l.V || len(v.SA1Win) != l.P {
			t.Fatalf("view %d slice lengths %d/%d", r, len(v.VCState), len(v.SA1Win))
		}
		// Views are capacity-clamped windows: writing one router's last
		// element must not alias the next router's first, and an append
		// past the window must reallocate instead of clobbering it.
		v.VCState[l.P*l.V-1] = uint8(r + 1)
		_ = append(v.VCState, 0xff)
	}
	for r := 0; r < l.R; r++ {
		if got := st.View(r).VCState[l.P*l.V-1]; got != uint8(r+1) {
			t.Fatalf("router %d window clobbered: %d", r, got)
		}
	}
	cr, fl := st.NIView(2)
	if len(cr) != l.V || len(fl) != l.V {
		t.Fatalf("NI view lengths %d/%d", len(cr), len(fl))
	}
	cr[0] = 7
	if c2, _ := st.NIView(1); c2[0] != 0 {
		t.Fatal("NI windows alias across routers")
	}
}

func TestCopyFromAndClone(t *testing.T) {
	l := Layout{R: 2, P: 5, V: 4}
	a := NewState(l)
	for i := range a.VCState {
		a.VCState[i] = uint8(i)
	}
	a.Credits[3] = -2
	a.NonIdle[1] = 0xf
	a.PktID[5] = 1 << 40
	a.NICredits[2] = 9

	b := NewState(l)
	b.CopyFrom(a)
	if b.VCState[7] != 7 || b.Credits[3] != -2 || b.NonIdle[1] != 0xf || b.PktID[5] != 1<<40 || b.NICredits[2] != 9 {
		t.Fatal("CopyFrom missed fields")
	}
	b.VCState[7] = 99
	if a.VCState[7] != 7 {
		t.Fatal("CopyFrom aliased storage")
	}

	mustPanic(t, "layout mismatch CopyFrom", func() {
		NewState(Layout{R: 1, P: 5, V: 4}).CopyFrom(a)
	})
}

func TestViewCopyFrom(t *testing.T) {
	l := Layout{R: 2, P: 5, V: 4}
	a, b := NewState(l), NewState(l)
	av := a.View(0)
	for i := range av.VCState {
		av.VCState[i] = 3
	}
	av.StOut[2] = -1
	bv := b.View(1)
	bv.CopyFrom(av)
	if bv.VCState[0] != 3 || bv.StOut[2] != -1 {
		t.Fatal("view CopyFrom missed fields")
	}
	if b.View(0).VCState[0] != 0 {
		t.Fatal("view CopyFrom leaked into the wrong window")
	}
	mustPanic(t, "geometry mismatch view CopyFrom", func() {
		NewState(Layout{R: 1, P: 5, V: 2}).View(0).CopyFrom(av)
	})
}
