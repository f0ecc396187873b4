package golden

import (
	"testing"

	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// Total returns the number of indexed ejections.
func (l *Log) Total() int { return l.total }

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
		t.Fatalf("identical logs judged %+v", v)
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
		t.Fatalf("verdict %+v, want 2 drops", v)
	}
}

func TestDuplicateDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej = append(ej, ej[4]) // one flit delivered twice
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Generated != 1 || v.OK() {
		t.Fatalf("verdict %+v, want 1 generated", v)
	}
}

func TestUnknownFlitDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	stray := &flit.Packet{ID: 99, Src: 0, Dest: 1, Length: 1, Payload: 5}
	ej = append(ej, sim.Ejection{Node: 1, Cycle: 999, Flit: stray.Flits(1, 0)[0]})
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Generated != 1 {
		t.Fatalf("verdict %+v, want 1 generated", v)
	}
}

func TestMisdeliveryDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[7].Node = (ej[7].Flit.Dest + 1) % 4 // delivered to the wrong node
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Misdelivered == 0 {
		t.Fatalf("verdict %+v, want misdelivery", v)
	}
}

func TestCorruptionDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[3].Flit = ej[3].Flit.Clone()
	ej[3].Flit.Payload ^= 1 // EDC now fails
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Corrupted == 0 {
		t.Fatalf("verdict %+v, want corruption", v)
	}
}

func TestKindCorruptionDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	ej[3].Flit = ej[3].Flit.Clone()
	ej[3].Flit.Kind = flit.Head // was a body flit
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Corrupted == 0 {
		t.Fatalf("verdict %+v, want kind corruption", v)
	}
}

func TestOrderViolationDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	ej := mkEjections(3, 5)
	// Swap two flits of the same packet at the destination.
	ej[1], ej[2] = ej[2], ej[1]
	v := Compare(g, FromEjections(ej, 0), true)
	if v.Misordered == 0 {
		t.Fatalf("verdict %+v, want order violation", v)
	}
}

func TestUnboundedDetected(t *testing.T) {
	g := FromEjections(mkEjections(3, 5), 0)
	f := FromEjections(mkEjections(3, 5), 0)
	v := Compare(g, f, false)
	if !v.Unbounded || v.OK() {
		t.Fatalf("verdict %+v, want unbounded", v)
	}
}

func TestAccessors(t *testing.T) {
	l := FromEjections(mkEjections(4, 5), 0)
	if l.Total() != 20 || len(l.entries) != 20 {
		t.Fatalf("Total = %d over %d keys, want 20 over 20", l.Total(), len(l.entries))
	}
}

// BenchmarkGoldenCompare measures the classification step: a drained
// 4×4 network's log against itself.
func BenchmarkGoldenCompare(b *testing.B) {
	cfg := sim.Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.15, Seed: 1}
	n := sim.MustNew(cfg, nil)
	n.Run(2000)
	n.Drain(8000)
	g := FromEjections(n.Ejections(), 0)
	f := FromEjections(n.Ejections(), 0)
	for b.Loop() {
		if v := Compare(g, f, true); !v.OK() {
			b.Fatal("identical logs judged malicious")
		}
	}
}
