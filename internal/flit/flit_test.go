package flit

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k              Kind
		s              string
		isHead, isTail bool
	}{
		{Head, "H", true, false},
		{Body, "B", false, false},
		{Tail, "T", false, true},
		{HeadTail, "HT", true, true},
	}
	for _, c := range cases {
		if c.k.String() != c.s {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
		if c.k.IsHead() != c.isHead || c.k.IsTail() != c.isTail {
			t.Errorf("%v predicates wrong", c.k)
		}
	}
}

func TestPacketSegmentation(t *testing.T) {
	p := &Packet{ID: 7, Src: 1, Dest: 14, Class: 0, Length: 5, Payload: 0xdead, InjectedAt: 99}
	fl := p.Flits(2, 3)
	if len(fl) != 5 {
		t.Fatalf("got %d flits", len(fl))
	}
	wantKinds := []Kind{Head, Body, Body, Body, Tail}
	for i, f := range fl {
		if f.Kind != wantKinds[i] {
			t.Errorf("flit %d kind %v, want %v", i, f.Kind, wantKinds[i])
		}
		if f.Seq != i || f.PacketID != 7 || f.Dest != 14 || f.DestX != 2 || f.DestY != 3 {
			t.Errorf("flit %d fields wrong: %v", i, f)
		}
		if !f.EDCOK() {
			t.Errorf("flit %d EDC invalid at creation", i)
		}
		if f.InjectedAt != 99 {
			t.Errorf("flit %d InjectedAt %d", i, f.InjectedAt)
		}
	}
}

func TestSingleFlitPacket(t *testing.T) {
	p := &Packet{ID: 1, Length: 1}
	fl := p.Flits(0, 0)
	if len(fl) != 1 || fl[0].Kind != HeadTail {
		t.Fatalf("single-flit packet: %v", fl)
	}
}

func TestTwoFlitPacket(t *testing.T) {
	p := &Packet{ID: 1, Length: 2}
	fl := p.Flits(0, 0)
	if fl[0].Kind != Head || fl[1].Kind != Tail {
		t.Fatalf("two-flit packet kinds: %v %v", fl[0].Kind, fl[1].Kind)
	}
}

func TestInvalidLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Packet{ID: 1, Length: 0}).Flits(0, 0)
}

// TestEDCDetectsFieldCorruption: any change to an EDC-covered field
// must invalidate the code.
func TestEDCDetectsFieldCorruption(t *testing.T) {
	mk := func() *Flit {
		f := &Flit{PacketID: 3, Seq: 1, Kind: Body, Dest: 9, Class: 0, Payload: 0x1234}
		f.SealEDC()
		return f
	}
	mutations := map[string]func(*Flit){
		"kind":    func(f *Flit) { f.Kind = Head },
		"seq":     func(f *Flit) { f.Seq = 2 },
		"dest":    func(f *Flit) { f.Dest = 10 },
		"class":   func(f *Flit) { f.Class = 1 },
		"payload": func(f *Flit) { f.Payload ^= 1 << 17 },
	}
	for name, mut := range mutations {
		f := mk()
		mut(f)
		if f.EDCOK() {
			t.Errorf("EDC missed %s corruption", name)
		}
	}
	// The VC field is rewritten per hop and must NOT be covered.
	f := mk()
	f.VC = 3
	if !f.EDCOK() {
		t.Error("EDC must not cover the per-hop VC field")
	}
}

// Property: sealing always yields a valid code, and single payload bit
// flips are always detected.
func TestEDCPayloadBitFlips(t *testing.T) {
	f := func(payload uint64, bit uint8) bool {
		fl := &Flit{Kind: Body, Seq: 1, Dest: 5, Payload: payload}
		fl.SealEDC()
		if !fl.EDCOK() {
			return false
		}
		fl.Payload ^= 1 << (bit % 64)
		return !fl.EDCOK()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	p := &Packet{ID: 5, Length: 3, Payload: 42}
	f := p.Flits(1, 1)[0]
	c := f.Clone()
	if *c != *f {
		t.Fatal("clone differs")
	}
	c.Payload++
	if f.Payload == c.Payload {
		t.Fatal("clone shares storage")
	}
}

func TestStringRendering(t *testing.T) {
	p := &Packet{ID: 5, Src: 1, Dest: 2, Length: 1}
	f := p.Flits(0, 0)[0]
	if got := f.String(); got == "" {
		t.Fatal("empty String()")
	}
}

// TestDigestCoversEveryField: a flit's digest moves with every one of its
// fields, on both of Digest's paths — the packed one every healthy flit
// takes, and the field-by-field one of a flit with a small field negative
// or wider than the packing — and the two paths keep flits apart that
// differ only in which path they take.
func TestDigestCoversEveryField(t *testing.T) {
	base := Flit{PacketID: 77, Seq: 3, Kind: Body, VC: 2, Src: 5, Dest: 250, DestX: 10, DestY: 15,
		Class: 1, Length: 5, Payload: 0xfeedface, EDC: 0x1234, InjectedAt: 900}
	wide := base
	wide.Src = 1 << 16 // off the packed path
	negative := base
	negative.VC = -1
	digests := map[uint64]string{}
	note := func(name string, f Flit) {
		t.Helper()
		d := f.Digest()
		if other, dup := digests[d]; dup {
			t.Fatalf("%s and %s digest alike (%#x)", other, name, d)
		}
		digests[d] = name
	}
	for _, tc := range []struct {
		name string
		f    Flit
	}{{"packed", base}, {"wide", wide}, {"negative", negative}} {
		note(tc.name, tc.f)
		for i, mut := range []func(*Flit){
			func(f *Flit) { f.PacketID++ }, func(f *Flit) { f.Seq++ }, func(f *Flit) { f.Kind = Tail },
			func(f *Flit) { f.VC += 4 }, func(f *Flit) { f.Src += 2 }, func(f *Flit) { f.Dest++ },
			func(f *Flit) { f.DestX++ }, func(f *Flit) { f.DestY++ }, func(f *Flit) { f.Class++ },
			func(f *Flit) { f.Length++ }, func(f *Flit) { f.Payload++ }, func(f *Flit) { f.EDC++ },
			func(f *Flit) { f.InjectedAt++ },
		} {
			f := tc.f
			mut(&f)
			note(fmt.Sprintf("%s with field %d changed", tc.name, i), f)
		}
	}
	// Neighbouring packed fields do not run into one another.
	a, b := base, base
	a.Seq, a.VC = 1, 0
	b.Seq, b.VC = 0, 1
	note("Seq 1, VC 0", a)
	note("Seq 0, VC 1", b)
	if f := (*Flit)(nil); f.FoldState(1) == base.FoldState(1) {
		t.Fatal("no flit folds like a flit")
	}
}
