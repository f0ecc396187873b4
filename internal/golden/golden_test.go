package golden

import (
	"testing"

	"nocalert/internal/flit"
	"nocalert/internal/sim"
)

// mkEjections builds a well-formed ejection log: packets of the given
// length delivered in order to their destinations.
func mkEjections(pkts int, length int) []sim.Ejection {
	var out []sim.Ejection
	cycle := int64(10)
	for p := 1; p <= pkts; p++ {
		pk := &flit.Packet{ID: uint64(p), Src: 0, Dest: p % 4, Class: 0, Length: length, Payload: uint64(p) * 977}
		for _, f := range pk.Flits(p%4, 0) {
			out = append(out, sim.Ejection{Node: pk.Dest, Cycle: cycle, Flit: f})
			cycle++
		}
	}
	return out
}

func TestIdenticalLogsAreBenign(t *testing.T) {
	g := FromEjections(mkEjections(5, 5), 0)
	f := FromEjections(mkEjections(5, 5), 0)
	v := Compare(g, f, true)
	if !v.OK() {
		t.Fatalf("identical logs judged %s", v.String())
	}
	if v.String() != "benign" {
		t.Fatalf("String() = %q", v.String())
	}
}

func TestSinceFiltersWarmup(t *testing.T) {
	ej := mkEjections(5, 5)
	full := FromEjections(ej, 0)
	late := FromEjections(ej, ej[len(ej)/2].Cycle)
	if late.Total() >= full.Total() || late.Total() == 0 {
		t.Fatalf("since filter broken: %d vs %d", late.Total(), full.Total())
	}
}

func TestDropDetected(t *testing.T) {
	g := FromEjections(mkEjections(5, 5), 0)
	ej := mkEjections(5, 5)
	f := FromEjections(ej[:len(ej)-2], 0) // last two flits never delivered
	v := Compare(g, f, true)
	if v.Dropped != 2 || v.OK() {
		t.Fatalf("verdict %s, want 2 drops", v.String())
	}
}

func TestDuplicateDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej = append(ej, ej[4]) // one flit delivered twice
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Generated != 1 || v.OK() {
		t.Fatalf("verdict %s, want 1 generated", v.String())
	}
}

func TestUnknownFlitDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	stray := &flit.Packet{ID: 99, Src: 0, Dest: 1, Length: 1, Payload: 5}
	ej = append(ej, sim.Ejection{Node: 1, Cycle: 999, Flit: stray.Flits(1, 0)[0]})
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Generated != 1 {
		t.Fatalf("verdict %s, want 1 generated", v.String())
	}
}

func TestMisdeliveryDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[7].Node = (ej[7].Flit.Dest + 1) % 4 // delivered to the wrong node
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Misdelivered == 0 {
		t.Fatalf("verdict %s, want misdelivery", v.String())
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[3].Flit = ej[3].Flit.Clone()
	ej[3].Flit.Payload ^= 1 // EDC now fails
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Corrupted == 0 {
		t.Fatalf("verdict %s, want corruption", v.String())
	}
}

func TestKindCorruptionDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[3].Flit = ej[3].Flit.Clone()
	ej[3].Flit.Kind = flit.Head // was a body flit
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Corrupted == 0 {
		t.Fatalf("verdict %s, want kind corruption", v.String())
	}
}

func TestOrderViolationDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	// Swap two flits of the same packet at the destination.
	ej[1], ej[2] = ej[2], ej[1]
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Misordered == 0 {
		t.Fatalf("verdict %s, want order violation", v.String())
	}
}

func TestUnboundedDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	f := FromEjections(mkEjections(3, 5), 0)
	v := Compare(g, f, false)
	if !v.Unbounded || v.OK() {
		t.Fatalf("verdict %s, want unbounded", v.String())
	}
}

func TestReasonsCapped(t *testing.T) {
	g := FromEjections(mkEjections(10, 5), 0)
	f := FromEjections(mkEjections(10, 5)[:5], 0)
	v := Compare(g, f, true)
	if len(v.Reasons) > 8 {
		t.Fatalf("%d reasons retained", len(v.Reasons))
	}
	if v.Dropped != 45 {
		t.Fatalf("dropped = %d, want 45", v.Dropped)
	}
}

func TestAccessors(t *testing.T) {
	l := FromEjections(mkEjections(4, 5), 0)
	if l.Total() != 20 || len(l.entries) != 20 {
		t.Fatalf("Total = %d over %d keys, want 20 over 20", l.Total(), len(l.entries))
	}
}
