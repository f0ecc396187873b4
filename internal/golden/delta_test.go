package golden

import (
	"fmt"
	"slices"
	"testing"

	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/sim"
)

// nodeCycle names one node's ejections of one cycle: the grain at which a
// delta-logged run departs from golden.
type nodeCycle struct {
	node  int
	cycle int64
}

// craftDelta builds a faulty run from the golden ejection list and a set
// of edits, one per node-cycle: the flits the node ejected on that cycle
// instead of golden's. It returns the run both ways — as the delta a
// frontier would log (the golden ejections of the edited node-cycles,
// the ejections that replace them) and as the full log a full simulation
// would hold, all in (cycle, node) order.
func craftDelta(golden []sim.Ejection, edits map[nodeCycle][]*flit.Flit) (replaced, live, full []sim.Ejection) {
	for _, e := range golden {
		if _, edited := edits[nodeCycle{e.Node, e.Cycle}]; edited {
			replaced = append(replaced, e)
		} else {
			full = append(full, e)
		}
	}
	for nc, flits := range edits {
		for _, f := range flits {
			live = append(live, sim.Ejection{Node: nc.node, Cycle: nc.cycle, Flit: f})
		}
	}
	byCycleNode := func(a, b sim.Ejection) int {
		if a.Cycle != b.Cycle {
			return int(a.Cycle - b.Cycle)
		}
		return a.Node - b.Node
	}
	slices.SortStableFunc(live, byCycleNode)
	full = append(full, live...)
	slices.SortStableFunc(full, byCycleNode)
	return replaced, live, full
}

// TestDeltaVerdictMatchesCompare holds Delta.Compare to golden.Compare
// over the full faulty log, counter for counter, on crafted runs of every
// violation kind and on seeded random mixtures of them.
func TestDeltaVerdictMatchesCompare(t *testing.T) {
	gold := mkEjections(8, 5) // packet p: five flits to node p%4, one a cycle from cycle 10
	goldenLog := FromEjections(gold, 0)
	if v := Compare(goldenLog, goldenLog, true); !v.OK() {
		t.Fatalf("golden log judged %+v against itself", v)
	}
	at := func(i int) nodeCycle { return nodeCycle{gold[i].Node, gold[i].Cycle} }
	altered := func(i int, edit func(*flit.Flit)) *flit.Flit {
		f := gold[i].Flit.Clone()
		edit(f)
		return f
	}
	stray := (&flit.Packet{ID: 99, Src: 0, Dest: 1, Length: 1, Payload: 5}).Flits(1, 0)[0]

	cases := []struct {
		name  string
		edits map[nodeCycle][]*flit.Flit
		want  Verdict
	}{
		{"unchanged", map[nodeCycle][]*flit.Flit{at(3): {gold[3].Flit}}, Verdict{}},
		{"drop", map[nodeCycle][]*flit.Flit{at(7): nil, at(8): nil}, Verdict{Dropped: 2}},
		{"duplicate", map[nodeCycle][]*flit.Flit{at(12): {gold[12].Flit, gold[12].Flit.Clone()}}, Verdict{Generated: 1}},
		{"late duplicate", map[nodeCycle][]*flit.Flit{{gold[6].Node, 400}: {gold[6].Flit.Clone()}}, Verdict{Generated: 1, Misordered: 1}},
		{"stray flit", map[nodeCycle][]*flit.Flit{{1, 300}: {stray}}, Verdict{Generated: 1}},
		{"misdeliver", map[nodeCycle][]*flit.Flit{at(21): nil, {(gold[21].Node + 1) % 4, gold[21].Cycle}: {gold[21].Flit}}, Verdict{Misdelivered: 1}},
		{"corrupt payload", map[nodeCycle][]*flit.Flit{at(17): {altered(17, func(f *flit.Flit) { f.Payload ^= 1 << 9 })}}, Verdict{Corrupted: 1}},
		{"corrupt kind", map[nodeCycle][]*flit.Flit{at(16): {altered(16, func(f *flit.Flit) { f.Kind = flit.Tail })}}, Verdict{Corrupted: 2}},
		{"misorder", map[nodeCycle][]*flit.Flit{at(31): {gold[32].Flit}, at(32): {gold[31].Flit}}, Verdict{Misordered: 1}},
		{"delayed past its successor", map[nodeCycle][]*flit.Flit{at(26): nil, {gold[26].Node, gold[27].Cycle + 50}: {gold[26].Flit}}, Verdict{Misordered: 1}},
	}
	var d Delta // one scratch across every case, as a worker keeps it
	for _, tc := range cases {
		for _, drained := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/drained=%t", tc.name, drained), func(t *testing.T) {
				replaced, live, full := craftDelta(gold, tc.edits)
				want := Compare(goldenLog, FromEjections(full, 0), drained)
				got := d.Compare(goldenLog, replaced, live, drained)
				if got != want {
					t.Fatalf("delta verdict %+v, full compare %+v", got, want)
				}
				tc.want.Unbounded = !drained
				if want != tc.want {
					t.Fatalf("crafted run judged %+v, meant %+v", want, tc.want)
				}
			})
		}
	}

	// Random mixtures: every edit kind at random node-cycles, several at
	// once, including node-cycles golden ejected nothing on.
	violations := 0
	for seed := uint64(1); seed <= 200; seed++ {
		g := rng.New(seed, 0xde17a)
		edits := map[nodeCycle][]*flit.Flit{}
		for k := 1 + g.Intn(6); k > 0; k-- {
			i := g.Intn(len(gold))
			switch g.Intn(6) {
			case 0:
				edits[at(i)] = nil
			case 1:
				edits[at(i)] = []*flit.Flit{gold[i].Flit, gold[g.Intn(len(gold))].Flit.Clone()}
			case 2:
				edits[nodeCycle{g.Intn(4), gold[i].Cycle + int64(g.Intn(60))}] = []*flit.Flit{gold[i].Flit.Clone()}
			case 3:
				edits[at(i)] = []*flit.Flit{altered(i, func(f *flit.Flit) { f.Payload++ })}
			case 4:
				j := g.Intn(len(gold))
				edits[at(i)], edits[at(j)] = []*flit.Flit{gold[j].Flit}, []*flit.Flit{gold[i].Flit}
			case 5:
				edits[at(i)] = []*flit.Flit{altered(i, func(f *flit.Flit) { f.Kind = flit.Kind(g.Intn(4)) })}
			}
		}
		replaced, live, full := craftDelta(gold, edits)
		want := Compare(goldenLog, FromEjections(full, 0), true)
		got := d.Compare(goldenLog, replaced, live, true)
		if got != want {
			t.Fatalf("seed %d: delta verdict %+v, full compare %+v (edits %v)", seed, got, want, edits)
		}
		if !want.OK() {
			violations++
		}
	}
	if violations < 100 {
		t.Fatalf("only %d of 200 random mixtures violated anything", violations)
	}
}
