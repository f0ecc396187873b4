package golden

import (
	"slices"

	"nocalert/internal/sim"
)

// Delta judges faulty runs that are given as a difference from the golden
// run: the divergence frontier (sim.Frontier) logs only the ejections of
// node-cycles that departed from golden's and lists the golden ejections
// those stand in place of, so the faulty log is golden's, less the
// replaced ones, plus the logged ones — and only the flit keys and nodes
// the difference touches can tell the verdict from golden's own. A Delta
// holds the scratch for that; a campaign worker keeps one across runs.
type Delta struct {
	moved map[Key]int    // per touched key: faulty ejections minus golden ones
	nodes []int          // the touched nodes
	last  map[uint64]int // orderStep's state for one node
}

func ejectionKey(e *sim.Ejection) Key { return Key{Pkt: e.Flit.PacketID, Seq: e.Flit.Seq} }

// Compare is golden.Compare for a faulty log given as the golden log with
// the ejections replaced taken out and the ejections live put in: the
// verdict is, counter for counter, the one Compare returns for the full
// faulty log. Both lists are in (cycle, node) order, replaced is a
// sub-multiset of the golden log that holds either all or none of a
// node's golden ejections of any one cycle, and live holds ejections only
// at such replaced node-cycles (or ones golden ejected nothing on). It is
// sound only when the golden log judged against itself is OK(): what the
// difference leaves untouched then contributes nothing.
func (d *Delta) Compare(goldenLog *Log, replaced, live []sim.Ejection, faultyDrained bool) Verdict {
	var v Verdict
	if !faultyDrained {
		v.Unbounded = true
	}
	if len(replaced) == 0 && len(live) == 0 {
		return v
	}
	if d.moved == nil {
		d.moved, d.last = make(map[Key]int), make(map[uint64]int)
	}
	clear(d.moved)
	d.nodes = d.nodes[:0]
	touch := func(node int) {
		if !slices.Contains(d.nodes, node) {
			d.nodes = append(d.nodes, node)
		}
	}

	for i := range replaced {
		d.moved[ejectionKey(&replaced[i])]--
		touch(replaced[i].Node)
	}
	for i := range live {
		e, k := &live[i], ejectionKey(&live[i])
		d.moved[k]++
		touch(e.Node)
		if e.Node != e.Flit.Dest {
			v.Misdelivered++
		}
		if !e.Flit.EDCOK() {
			v.Corrupted++
		}
		if ge := goldenLog.entries[k]; len(ge) > 0 && e.Flit.Kind != ge[0].Kind {
			v.Corrupted++
		}
	}

	// Flit conservation, on the keys whose multiplicity moved.
	for _, by := range d.moved {
		switch {
		case by < 0:
			v.Dropped -= by
		case by > 0:
			v.Generated += by
		}
	}

	// Intra-packet ordering at the touched nodes: each one's faulty
	// ejection order is golden's with the replaced cycles' entries
	// exchanged for the live ones.
	for _, node := range d.nodes {
		clear(d.last)
		next := func(list []sim.Ejection, i int) int { // next entry of list at node, from i
			for i < len(list) && list[i].Node != node {
				i++
			}
			return i
		}
		r, l := next(replaced, 0), next(live, 0)
		for _, g := range goldenLog.perNode[node] {
			for ; l < len(live) && live[l].Cycle < g.Cycle; l = next(live, l+1) {
				v.Misordered += orderStep(d.last, ejectionKey(&live[l]))
			}
			if r < len(replaced) && replaced[r].Cycle == g.Cycle && ejectionKey(&replaced[r]) == g.Key {
				r = next(replaced, r+1)
				continue
			}
			v.Misordered += orderStep(d.last, g.Key)
		}
		for ; l < len(live); l = next(live, l+1) {
			v.Misordered += orderStep(d.last, ejectionKey(&live[l]))
		}
	}
	return v
}
