package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

// TestRecordingFootprintPinned pins Recording.ApproxFootprintBytes to
// its documented arithmetic: every slice the transcript retains, at
// capacity, times its element size — event payloads, the one key array a
// stopped transcript keeps, the seven node-major indices (offsets and
// ids), each event's cycle (one array a kind, the inbox views sharing
// their kind's), the prefix offsets, the fold table and its row digests, the
// busy-NI bits and their row counts — each event payload at its
// struct's size on the target (a flit is 104 bytes on amd64, 64 on 386). The key arrays the indices
// replace must be gone, or they would be retained and not counted for. The campaign's campaign_timeline_bytes gauge,
// Report.TimelineBytes and the GoldenCache budget surface this number,
// so a silent formula drift would misreport golden-side memory.
func TestRecordingFootprintPinned(t *testing.T) {
	var nilRec *Recording
	if got := nilRec.ApproxFootprintBytes(); got != 0 {
		t.Fatalf("nil Recording footprint = %d, want 0", got)
	}

	cfg := Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.2, Seed: 11}
	n := MustNew(cfg, nil)
	for n.Cycle() < 60 {
		n.Step()
	}
	n.StartRecording(40)
	for i := 0; i < 40; i++ {
		n.Step()
	}
	rc := n.StopRecording()

	if rc.Cycles() != 40 {
		t.Fatalf("recorded %d cycles, want 40", rc.Cycles())
	}
	if len(rc.gens) == 0 || len(rc.links) == 0 || len(rc.credits) == 0 {
		t.Fatal("transcript recorded no traffic; raise the injection rate or window")
	}

	if rc.genNode != nil || rc.linkSrc != nil || rc.creditSrc != nil || rc.sends != nil {
		t.Fatal("a stopped transcript still holds a key array its indices replace")
	}
	size := func(n int, x uintptr) int64 { return int64(n) * int64(x) }
	want := size(cap(rc.gens), unsafe.Sizeof(recGen{})) +
		size(cap(rc.links), unsafe.Sizeof(recLink{})) +
		size(cap(rc.credits), unsafe.Sizeof(recCredit{})) +
		size(cap(rc.ejectFlits), unsafe.Sizeof(flit.Flit{})) + int64(cap(rc.ejectNode))*4 +
		int64(cap(rc.folds))*8 + int64(cap(rc.foldSum))*8 +
		int64(cap(rc.busy))*8 + int64(cap(rc.busyN))*4 +
		int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx))*4
	events := rc.genIdx[40] + 2*rc.linkIdx[40] + 2*rc.credIdx[40] + rc.sendIdx[40] + rc.ejectIdx[40]
	want += (int64(events) + 7*(16+1)) * 4 // ids, and nodes+1 offsets an index
	// and one cycle an event, an array a kind
	want += int64(rc.genIdx[40]+rc.linkIdx[40]+rc.credIdx[40]+rc.sendIdx[40]+rc.ejectIdx[40]) * 4
	if got := rc.ApproxFootprintBytes(); got != want {
		t.Fatalf("Recording.ApproxFootprintBytes() = %d, want %d", got, want)
	}
	for _, x := range rc.by {
		if len(x.off) != cap(x.off) || len(x.ids) != cap(x.ids) || len(x.at) != cap(x.at) || len(x.at) != len(x.ids) {
			t.Fatalf("an index holds %d offsets in %d, %d ids in %d and %d event cycles in %d: built to size, it has no slack", len(x.off), cap(x.off), len(x.ids), cap(x.ids), len(x.at), cap(x.at))
		}
	}
	// The inbox views read their kind's event cycles, not copies the
	// footprint would not count.
	if &rc.by[byLinkTo].at[0] != &rc.by[byLinkFrom].at[0] || &rc.by[byCreditTo].at[0] != &rc.by[byCreditFrom].at[0] {
		t.Fatal("an inbox view keeps event cycles of its own")
	}
	if len(rc.foldSum) != 40 || len(rc.busyN) != 40 {
		t.Fatalf("row digests %d, busy counts %d: want 40, 40", len(rc.foldSum), len(rc.busyN))
	}
	if got, want := len(rc.busy), 40*rc.busyWords(); got != want || rc.busyWords() != 1 {
		t.Fatalf("busy-NI bits: %d words of %d a cycle, want %d of 1", got, rc.busyWords(), want)
	}
}

// TestRecordingThroughDrain drives the golden runs the campaigns record —
// window, then drain with injection off until the transcript settles — and
// checks the two things the drain half of the transcript rests on. On
// every drain cycle every node's recorded fold must equal its fold rebuilt
// from the live state with every fold cache thrown away — the folds of the
// nodes nothing wrote across the cycle, which the record took from those
// caches, included — and the recorded busy bit must be what Quiet reads.
// And once
// the transcript has settled the network really is a fixed point: it steps
// on without a signal, and every later boundary repeats the rows the
// transcript answers for it.
func TestRecordingThroughDrain(t *testing.T) {
	for _, tc := range []struct {
		w, h   int
		rate   float64
		refEng bool // the reference sweep engine steps idle routers too
	}{
		{4, 4, 0.12, false},
		{4, 4, 0.12, true},
		{8, 8, 0.05, false},
		{16, 16, 0.02, false},
	} {
		t.Run(fmt.Sprintf("%dx%d/ref=%t", tc.w, tc.h, tc.refEng), func(t *testing.T) {
			if testing.Short() && tc.w > 4 {
				t.Skip("large mesh in -short mode")
			}
			cfg := Config{Router: router.Default(topology.NewMesh(tc.w, tc.h)), InjectionRate: tc.rate, Seed: 3, DisableSoA: tc.refEng}
			n := MustNew(cfg, nil)
			n.Run(300)
			n.StartRecording(200)
			n.Run(200)
			n.StopInjection()
			kept := 0
			refolds := func() (sum int64) {
				for _, r := range n.routers {
					folded, _ := r.FoldCounts()
					sum += folded
				}
				return sum
			}
			for quietAt := int64(-1); !n.rec.settled; {
				if n.Cycle() > 5000 {
					t.Fatal("golden run did not settle")
				}
				before := refolds()
				n.Step()
				kept += len(n.routers) - int(refolds()-before)
				if quietAt < 0 && n.Quiet() {
					quietAt = n.Cycle()
				}
				tb := n.Cycle() - 1
				folds, busy := n.rec.foldRow(tb), n.rec.busyRow(tb)
				for i := range n.routers {
					if got, want := folds[i], rebuiltNodeFold(n, i); got != want {
						t.Fatalf("cycle %d node %d: recorded fold %#x, rebuilt %#x", tb, i, got, want)
					}
					if got, want := busy[i/64]>>(i%64)&1 == 1, n.nis[i].busy(); got != want {
						t.Fatalf("cycle %d node %d: recorded busy bit %t, NI busy %t", tb, i, got, want)
					}
				}
				if n.rec.settled && quietAt < 0 {
					t.Fatalf("cycle %d: transcript settled on a network that is not quiet", tb)
				}
			}
			if kept == 0 && !tc.refEng {
				t.Fatal("no router's fold was kept across a cycle: the drain never had an idle node")
			}
			rec := n.StopRecording()
			if rec.injectEnd != 500 {
				t.Fatalf("injection recorded as ending at cycle %d, want 500", rec.injectEnd)
			}

			end := n.Cycle()
			n.StartRecording(50)
			n.Run(50)
			tail := n.StopRecording()
			if len(tail.links)+len(tail.credits)+len(tail.by[bySend].ids)+len(tail.ejectNode)+len(tail.gens) != 0 {
				t.Fatal("a settled network emitted a signal")
			}
			for tb := end; tb < end+50; tb++ {
				if !rec.covers(tb) {
					t.Fatalf("settled transcript does not cover cycle %d", tb)
				}
				if lo, hi := rec.seg(rec.linkIdx, tb); lo != hi {
					t.Fatalf("cycle %d past the stored cycles has events [%d,%d)", tb, lo, hi)
				}
				if !slices.Equal(rec.foldRow(tb), tail.foldRow(tb)) || !slices.Equal(rec.busyRow(tb), tail.busyRow(tb)) {
					t.Fatalf("cycle %d: the network moved on from the boundary the transcript settled at", tb)
				}
			}
		})
	}
}

// TestNetworkFootprintIncludesRecording pins the Network-level
// accounting: a network with an attached transcript must report its
// bare footprint plus exactly the transcript's own footprint, and
// detaching the transcript (StopRecording) must restore the bare
// number. This is what makes snapshot-ring and timeline accounting
// composable — the same Network method serves both.
func TestNetworkFootprintIncludesRecording(t *testing.T) {
	cfg := Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0.2, Seed: 7}
	n := MustNew(cfg, nil)
	bare := n.ApproxFootprintBytes()
	if bare <= 0 {
		t.Fatalf("bare footprint = %d, want > 0", bare)
	}

	n.StartRecording(20)
	for i := 0; i < 20; i++ {
		n.Step()
	}
	withRec, attached := n.ApproxFootprintBytes(), n.rec.ApproxFootprintBytes()
	if got, want := withRec, bare+attached; got != want || attached <= 0 {
		t.Fatalf("footprint with transcript = %d, want bare %d + transcript %d = %d",
			got, bare, attached, want)
	}
	n.StopRecording()
	if got := n.ApproxFootprintBytes(); got != bare {
		t.Fatalf("footprint after StopRecording = %d, want bare %d", got, bare)
	}
}

// recordedKeys is what a transcript's key arrays held when it was
// stopped: the per-cycle, per-emitter order the node-major indices are
// built from and held to.
type recordedKeys struct {
	gen, linkSrc, creditSrc, send, eject []int32
}

// stopKeepingKeys stops n's recording and returns it with a copy of the
// key arrays StopRecording drops.
func stopKeepingKeys(n *Network) (*Recording, recordedKeys) {
	rc := n.rec
	keys := recordedKeys{slices.Clone(rc.genNode), slices.Clone(rc.linkSrc), slices.Clone(rc.creditSrc), slices.Clone(rc.sends), slices.Clone(rc.ejectNode)}
	return n.StopRecording(), keys
}

// viewOracle is the oracle for one of the seven views of a transcript:
// the ids of a node's events within one cycle's [lo,hi), by binary search
// over the cycle's ascending keys (span) for an emitter's view, by a scan
// of the payloads' destinations for an inbox.
type viewOracle struct {
	name string
	ids  func(lo, hi, node int) []int32
}

func viewOracles(rc *Recording, keys recordedKeys) [views]viewOracle {
	byKey := func(keys []int32) func(lo, hi, node int) []int32 {
		return func(lo, hi, node int) []int32 {
			a, b := span(keys[lo:hi], node)
			return idRange(lo+a, lo+b)
		}
	}
	scan := func(dst func(k int) int32) func(lo, hi, node int) []int32 {
		return func(lo, hi, node int) []int32 {
			var ids []int32
			for k := lo; k < hi; k++ {
				if int(dst(k)) == node {
					ids = append(ids, int32(k))
				}
			}
			return ids
		}
	}
	return [views]viewOracle{
		byGen:        {"gens", byKey(keys.gen)},
		byLinkFrom:   {"links out", byKey(keys.linkSrc)},
		byCreditFrom: {"credits out", byKey(keys.creditSrc)},
		bySend:       {"sends", byKey(keys.send)},
		byEject:      {"ejects", byKey(keys.eject)},
		byLinkTo:     {"links in", scan(func(k int) int32 { return rc.links[k].dst })},
		byCreditTo:   {"credits in", scan(func(k int) int32 { return rc.credits[k].dst })},
	}
}

// TestRecordingKeyedLookups holds the transcript's node-major indices and
// the cursor lookup over them to the cycle-major arrays they were built
// from. Every cycle's slice of every key array must be ascending (Step
// walks NIs and stepped routers by id, under either sweep engine: what
// makes a node's ids ascend, and what the oracle's binary search rests
// on). Every event must be in its emitter's list exactly once, and a link
// or credit event in its destination's as well, every list ascending and
// holding nothing else; the emitter a dropped key named must be the
// neighbour the frontier derives from the payload. And a cursor walked
// cycle by cycle over any node must return exactly the ids the oracle
// finds, and nothing past the stored cycles.
func TestRecordingKeyedLookups(t *testing.T) {
	for _, tc := range []struct {
		w, h   int
		rate   float64
		refEng bool
	}{
		{4, 4, 0.2, false},
		{4, 4, 0.2, true},
		{8, 8, 0.08, false},
		{5, 3, 0.15, false},
	} {
		t.Run(fmt.Sprintf("%dx%d/ref=%t", tc.w, tc.h, tc.refEng), func(t *testing.T) {
			mesh := topology.NewMesh(tc.w, tc.h)
			cfg := Config{Router: router.Default(mesh), InjectionRate: tc.rate, Seed: 5, DisableSoA: tc.refEng}
			n := MustNew(cfg, nil)
			n.Run(100)
			n.StartRecording(150)
			n.Run(150)
			rc, keys := stopKeepingKeys(n)

			for k, l := range rc.links {
				if src, ok := mesh.Neighbor(int(l.dst), topology.Direction(l.dstPort)); !ok || src != int(keys.linkSrc[k]) {
					t.Fatalf("link %d from node %d lands on port %d of node %d, whose neighbour there is %d", k, keys.linkSrc[k], l.dstPort, l.dst, src)
				}
			}
			for k, c := range rc.credits {
				if src, ok := mesh.Neighbor(int(c.dst), topology.Direction(c.dstPort)); !ok || src != int(keys.creditSrc[k]) {
					t.Fatalf("credit %d from node %d lands on port %d of node %d, whose neighbour there is %d", k, keys.creditSrc[k], c.dstPort, c.dst, src)
				}
			}
			for view, kind := range viewOracles(rc, keys) {
				x := &rc.by[view]
				total := int(x.cycle[rc.Cycles()])
				if total == 0 {
					t.Fatalf("%s: nothing recorded; raise the rate or the window", kind.name)
				}
				if len(x.off) != rc.nodes+1 || x.off[0] != 0 || int(x.off[rc.nodes]) != total || len(x.ids) != total {
					t.Fatalf("%s: index of %d ids under offsets %v for %d events", kind.name, len(x.ids), x.off, total)
				}
				seen := make([]bool, total)
				for node := 0; node < rc.nodes; node++ {
					list := x.ids[x.off[node]:x.off[node+1]]
					for i, id := range list {
						if i > 0 && list[i-1] >= id {
							t.Fatalf("%s node %d: ids %v are not ascending", kind.name, node, list)
						}
						if seen[id] {
							t.Fatalf("%s: event %d is listed twice", kind.name, id)
						}
						seen[id] = true
					}
					// Walked cycle by cycle the cursor finds what the oracle
					// finds, which also says the list holds the node's events
					// and no others: every id was seen once, above.
					var cur cursor
					for c := 0; c < rc.Cycles(); c++ {
						cyc := rc.start + int64(c)
						lo, hi := rc.seg(x.cycle, cyc)
						if got, want := rc.events(view, &cur, cyc, node), kind.ids(lo, hi, node); !slices.Equal(got, want) {
							t.Fatalf("%s cycle %d node %d: cursor finds %v, the cycle's scan %v", kind.name, cyc, node, got, want)
						}
					}
					if int(cur.pos) > len(list) {
						t.Fatalf("%s node %d: cursor %d ran past the node's %d events", kind.name, node, cur.pos, len(list))
					}
					// Past the stored cycles of a transcript every lookup is empty.
					if got := rc.events(view, &cur, rc.start+int64(rc.Cycles()), node); len(got) != 0 {
						t.Fatalf("%s node %d: events %v past the last cycle", kind.name, node, got)
					}
				}
				if i := slices.Index(seen, false); i >= 0 {
					t.Fatalf("%s: event %d is in no node's list", kind.name, i)
				}
			}
			for _, kk := range []struct {
				name      string
				keys, idx []int32
			}{
				{"gens", keys.gen, rc.genIdx}, {"links", keys.linkSrc, rc.linkIdx}, {"credits", keys.creditSrc, rc.credIdx},
				{"sends", keys.send, rc.sendIdx}, {"ejects", keys.eject, rc.ejectIdx},
			} {
				for c := 0; c < rc.Cycles(); c++ {
					if lo, hi := rc.seg(kk.idx, rc.start+int64(c)); !slices.IsSorted(kk.keys[lo:hi]) {
						t.Fatalf("%s cycle %d: keys %v are not ascending", kk.name, rc.start+int64(c), kk.keys[lo:hi])
					}
				}
			}
		})
	}
}

// idRange lists lo..hi-1 (nil when empty, like an empty lookup).
func idRange(lo, hi int) []int32 {
	var out []int32
	for k := lo; k < hi; k++ {
		out = append(out, int32(k))
	}
	return out
}

// span returns the [lo,hi) range of node's events inside keys, one
// cycle's ascending slice of an event key array, by binary search: the
// per-cycle lookup the frontier used before it kept cursors, kept as their
// oracle.
func span(keys []int32, node int) (int, int) {
	lo, _ := slices.BinarySearch(keys, int32(node))
	hi := lo
	for hi < len(keys) && keys[hi] == int32(node) {
		hi++
	}
	return lo, hi
}

// TestRecordingFoldsAnUpsetIdleRouter: closeCycle takes an idle node's
// fold from the node's kept folds, and an upset that lands in an idle
// router's credit counter leaves the router idle with another live register
// file. The recorded row must see it, and every other node keep its fold.
func TestRecordingFoldsAnUpsetIdleRouter(t *testing.T) {
	const host, strike = 5, 40
	site := fault.Site{Router: host, Kind: fault.CreditCountReg, Port: int(topology.East), VC: 1, Width: 3}
	plane := fault.NewPlane(fault.Fault{Site: site, Bit: 1, Cycle: strike, Type: fault.Transient})
	n := MustNew(Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0, Seed: 3}, plane)
	n.StartRecording(80)
	before := n.Router(host).FoldState(statehash.Seed)
	for n.Cycle() < 80 {
		n.Step()
		tb := n.Cycle() - 1
		for id, fold := range n.rec.foldRow(tb) {
			if want := n.nodeFold(id); fold != want {
				t.Fatalf("cycle %d node %d: recorded fold %#x, the node folds to %#x", tb, id, fold, want)
			}
		}
	}
	if plane.FiredAt(0) != strike || n.Router(host).FoldState(statehash.Seed) == before || !n.Router(host).Inert() {
		t.Fatalf("the upset (fired at %d) was meant to change idle router %d's registers and leave it idle", plane.FiredAt(0), host)
	}
}

// TestResidueFoldedWhileTheWindowCanOpen: a node's fold takes its router's
// residue (router.Router.FoldResidue) for as long as the router's own fault
// window can still open, and from the boundary after it has closed the live
// state alone. An upset of an idle VC's route register changes the residue
// and nothing else. Beside a permanent fault on the same router, which holds
// the window open, the node must fold otherwise than a twin spared the
// upset; beside nothing, alike from the boundary after the strike.
func TestResidueFoldedWhileTheWindowCanOpen(t *testing.T) {
	const host, strike = 5, 40
	upset := fault.Fault{Site: fault.Site{Router: host, Kind: fault.VCRouteReg, Port: int(topology.East), VC: 1, Width: router.DirWidth}, Bit: 1, Cycle: strike, Type: fault.Transient}
	armed := fault.Fault{Site: fault.Site{Router: host, Kind: fault.FlitKindIn, Port: int(topology.Local), VC: -1, Width: 2}, Bit: 0, Cycle: 10, Type: fault.Permanent}
	cfg := Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0, Seed: 3}
	for _, tc := range []struct {
		name          string
		with, without []fault.Fault
		open          bool
	}{
		{"window held open", []fault.Fault{armed, upset}, []fault.Fault{armed}, true},
		{"window closed", []fault.Fault{upset}, nil, false},
	} {
		a, b := MustNew(cfg, fault.NewPlane(tc.with...)), MustNew(cfg, fault.NewPlane(tc.without...))
		for a.Cycle() <= strike+5 {
			a.Step()
			b.Step()
			if a.Router(host).FoldState(statehash.Seed) != b.Router(host).FoldState(statehash.Seed) {
				t.Fatalf("%s, boundary %d: the upset of an idle VC's route moved the live fold", tc.name, a.Cycle())
			}
			if a.Cycle() <= strike {
				continue
			}
			if differ := a.nodeFold(host) != b.nodeFold(host); differ != tc.open {
				t.Fatalf("%s, boundary %d: the node folds otherwise than its twin: %t, want %t", tc.name, a.Cycle(), differ, tc.open)
			}
		}
		if a.plane.FiredAt(len(tc.with)-1) != strike {
			t.Fatalf("%s: the upset did not strike", tc.name)
		}
	}
}

// settledTranscript records an 8×8 golden window and drain the way the
// campaigns do and returns the settled transcript with the key arrays it
// was indexed from.
func settledTranscript(t *testing.T, rate float64, seed uint64, warm, window int) (*Recording, recordedKeys) {
	t.Helper()
	n := MustNew(Config{Router: router.Default(topology.NewMesh(8, 8)), InjectionRate: rate, Seed: seed}, nil)
	n.Run(int64(warm))
	n.StartRecording(window)
	n.Run(int64(window))
	n.StopInjection()
	for !n.rec.settled {
		if n.Cycle() > int64(warm+window+5000) {
			t.Fatal("golden run did not settle")
		}
		n.Step()
	}
	return stopKeepingKeys(n)
}

// TestCursorLookupsMatchTheScan reads a settled transcript the way a
// frontier does — per node, through one cursor an event kind — along
// sequences of (node, cycle) lookups, and holds every answer to the
// oracle's search of that cycle's events. The scripted sequences are the
// shapes that break a cursor which trusts too much: a node that is a
// member, retires and rejoins much later (the cursor skips what lies
// between); two members read cycle by cycle beside a clean node whose own
// cursors stay at the fork until it is replayed from there, all at once;
// a replay that runs across the end of injection, through the drain and
// past the last stored cycle; and a lookup behind the cursor, which must
// be found all the same. The random ones interleave many nodes, each over
// its own non-decreasing cycles with gaps, repeats and the odd step back.
func TestCursorLookupsMatchTheScan(t *testing.T) {
	rc, keys := settledTranscript(t, 0.08, 5, 100, 150)
	oracles := viewOracles(rc, keys)
	start, stored, injectEnd := rc.start, int64(rc.Cycles()), rc.injectEnd-rc.start
	if injectEnd != 150 || stored <= injectEnd+10 {
		t.Fatalf("transcript of %d cycles stops injecting after %d: want a drain behind a 150-cycle window", stored, injectEnd)
	}

	type lookup struct {
		node int
		c    int64 // cycle, from the transcript's start
	}
	span := func(seq []lookup, node int, from, to int64) []lookup {
		for c := from; c <= to; c++ {
			seq = append(seq, lookup{node, c})
		}
		return seq
	}
	var rejoin, beside, replay, behind []lookup
	rejoin = span(span(rejoin, 27, 0, 20), 27, 90, 120)
	for c := int64(0); c <= 60; c++ { // 26 and 28 flank 27
		beside = append(beside, lookup{26, c}, lookup{28, c})
	}
	beside = span(beside, 27, 0, 60)
	for c := int64(61); c <= 80; c++ {
		beside = append(beside, lookup{26, c}, lookup{27, c}, lookup{28, c})
	}
	replay = span(replay, 9, injectEnd-30, stored+5)
	behind = append(span(span(behind, 36, 0, 5), 36, 100, 104), lookup{36, 50}, lookup{36, 50}, lookup{36, 3}, lookup{36, 120})

	g := rng.New(99, 7)
	random := make([]lookup, 0, 4000)
	at := make([]int64, rc.nodes)
	for len(random) < cap(random) {
		node := g.Intn(rc.nodes)
		switch g.Intn(10) {
		case 0:
			at[node] += int64(g.Intn(40)) // a retirement's gap
		case 1:
			at[node] = max(0, at[node]-int64(g.Intn(30))) // behind the cursor
		case 2: // the same cycle again
		default:
			at[node]++
		}
		at[node] = min(at[node], stored+3)
		random = append(random, lookup{node, at[node]})
	}

	for _, sc := range []struct {
		name string
		seq  []lookup
	}{{"rejoin", rejoin}, {"two members beside a clean node", beside}, {"replay across injectEnd", replay}, {"behind the cursor", behind}, {"random", random}} {
		t.Run(sc.name, func(t *testing.T) {
			cur := make([]cursor, views*rc.nodes)
			found, between := 0, 0
			for _, lk := range sc.seq {
				cyc := start + lk.c
				for view, kind := range oracles {
					var want []int32
					if lk.c < stored {
						lo, hi := rc.seg(rc.by[view].cycle, cyc)
						want = kind.ids(lo, hi, lk.node)
					}
					cu := &cur[view*rc.nodes+lk.node]
					if cu.lo <= cyc && cyc-cu.lo < int64(cu.n) {
						between++
					}
					got := rc.events(view, cu, cyc, lk.node)
					if !slices.Equal(got, want) {
						t.Fatalf("%s of node %d at cycle %d: cursor finds %v, the cycle's scan %v", kind.name, lk.node, cyc, got, want)
					}
					found += len(got)
					// The cursor's cycles without an event, once it has any,
					// are the ones between the events either side of its
					// place.
					if *cu == (cursor{}) {
						continue
					}
					x := &rc.by[view]
					list := x.ids[x.off[lk.node]:x.off[lk.node+1]]
					lo, n := start, uint32(math.MaxUint32)
					if cu.pos > 0 {
						lo = start + int64(x.at[list[cu.pos-1]]) + 1
					}
					if int(cu.pos) < len(list) {
						n = uint32(start + int64(x.at[list[cu.pos]]) - lo)
					}
					if cu.lo != lo || cu.n != n {
						t.Fatalf("%s of node %d at cycle %d: cursor at %d says %d cycles from %d have no event, its neighbours say %d from %d", kind.name, lk.node, cyc, cu.pos, cu.n, cu.lo, n, lo)
					}
				}
			}
			if found == 0 || between == 0 {
				t.Fatalf("%d lookups found an event and %d fell between a cursor's bounds: the comparison is vacuous", found, between)
			}
		})
	}
}

// TestRecordingSizedOnce holds StartRecording's sizing to the transcripts
// the repository benchmark's campaigns record — the 8×8 and 16×16 meshes
// at their loads, a 500-cycle window from cycle 300, on through the drain
// until the network settles: every array the estimate sized still has the
// capacity it started with (nothing was reallocated under the recorder)
// and no more than a quarter of it is unused.
func TestRecordingSizedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("large meshes in -short mode")
	}
	for _, tc := range []struct {
		w, h int
		rate float64
	}{{8, 8, 0.05}, {16, 16, 0.02}} {
		t.Run(fmt.Sprintf("%dx%d", tc.w, tc.h), func(t *testing.T) {
			n := MustNew(Config{Router: router.Default(topology.NewMesh(tc.w, tc.h)), InjectionRate: tc.rate, Seed: 3}, nil)
			n.Run(300)
			n.StartRecording(500)
			rc := n.rec
			sized := func() map[string][2]int {
				return map[string][2]int{
					"gens": {len(rc.gens), cap(rc.gens)}, "gen keys": {len(rc.genNode), cap(rc.genNode)},
					"links": {len(rc.links), cap(rc.links)}, "link keys": {len(rc.linkSrc), cap(rc.linkSrc)},
					"credits": {len(rc.credits), cap(rc.credits)}, "credit keys": {len(rc.creditSrc), cap(rc.creditSrc)},
					"sends":  {len(rc.sends), cap(rc.sends)},
					"ejects": {len(rc.ejectFlits), cap(rc.ejectFlits)}, "eject keys": {len(rc.ejectNode), cap(rc.ejectNode)},
					"folds": {len(rc.folds), cap(rc.folds)}, "fold digests": {len(rc.foldSum), cap(rc.foldSum)},
					"busy bits": {len(rc.busy), cap(rc.busy)}, "busy counts": {len(rc.busyN), cap(rc.busyN)},
					"link offsets": {len(rc.linkIdx), cap(rc.linkIdx)}, "eject offsets": {len(rc.ejectIdx), cap(rc.ejectIdx)},
				}
			}
			before := sized()
			n.Run(500)
			n.StopInjection()
			for !rc.settled {
				if n.Cycle() > 5000 {
					t.Fatal("golden run did not settle")
				}
				n.Step()
			}
			for name, lc := range sized() {
				if lc[1] != before[name][1] {
					t.Errorf("%s: capacity %d grew to %d under the recorder", name, before[name][1], lc[1])
				}
				if 4*lc[1] > 5*lc[0] {
					t.Errorf("%s: %d recorded in a capacity of %d, more than a quarter unused", name, lc[0], lc[1])
				}
			}
			t.Logf("%d cycles, %d link events in %d, %d folds in %d", rc.Cycles(), len(rc.links), cap(rc.links), len(rc.folds), cap(rc.folds))
			n.StopRecording()
		})
	}
}

// TestRecordingOutgrowsItsEstimate records traffic the estimate
// undersizes, because its packets travel further than uniform traffic's
// 5.3 hops — bit-complement, 8 hops across the 8×8 mesh (transpose
// travels uniform's distance, and fits), and a hotspot in two opposite
// corners, 7 hops from the average node — and requires the transcript,
// grown by append, to be the one a recorder that started from all but
// empty arrays writes: payloads, offsets, folds and indices, value for value.
func TestRecordingOutgrowsItsEstimate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pattern traffic.Pattern
		rate    float64
		window  int
	}{
		{"bitcomplement", traffic.BitComplement{}, 0.05, 300},
		{"hotspot", traffic.NewHotspot([]int{0, 63}, 0.8), 0.03, 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			record := func(sized bool) (*Recording, int) {
				n := MustNew(Config{Router: router.Default(topology.NewMesh(8, 8)), Pattern: tc.pattern, InjectionRate: tc.rate, Seed: 3}, nil)
				n.Run(200)
				if n.StartRecording(tc.window); !sized {
					n.rec = newRecording(n.cycle, n.mesh, 0, recLoad{})
					n.rec.folds, n.rec.busy = nil, nil
				}
				estimate := cap(n.rec.links)
				n.Run(int64(tc.window))
				n.StopInjection()
				rec := n.SettleRecording(n.Cycle() + 5000)
				if rec == nil {
					t.Fatal("golden run did not settle")
				}
				return rec, estimate
			}
			got, estimate := record(true)
			want, _ := record(false)
			if len(got.links) <= estimate {
				t.Fatalf("%d link events fit the estimate of %d: the traffic was meant to outgrow it", len(got.links), estimate)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the transcript that outgrew its estimate differs from one grown from nothing")
			}
		})
	}
}

// TestJoinedSegmentsAreTheWhole: a transcript recorded in two segments on
// two networks — the first from the window's start to a split cycle, the
// second on a clone of the first's network from there, through the drain,
// until the network settles — and joined (Recording.Join) is the
// transcript one network records whole: payloads, prefix offsets, fold and
// busy rows, injectEnd, settled and the node-major indices, value for
// value, for seams one cycle into the window, in its middle and one cycle
// before its end. The first segment is sized for the whole window, as the
// campaign sizes it, and the second appended to it in place.
func TestJoinedSegmentsAreTheWhole(t *testing.T) {
	const start, window = 200, 300
	base := MustNew(Config{Router: router.Default(topology.NewMesh(6, 6)), InjectionRate: 0.08, Seed: 5}, nil)
	base.Run(start)
	settle := func(n *Network, cycles int64, seg bool) *Recording {
		n.Run(cycles)
		n.StopInjection()
		if seg {
			return n.SettleSegment(n.Cycle() + 5000)
		}
		return n.SettleRecording(n.Cycle() + 5000)
	}
	whole := base.Clone(nil)
	whole.StartRecording(window)
	want := settle(whole, window, false)
	if want == nil || want.injectEnd != start+window {
		t.Fatal("the whole transcript did not settle after the window")
	}
	for _, at := range []int64{start + 1, start + window/2, start + window - 1} {
		head := base.Clone(nil)
		head.StartRecording(window)
		head.Run(at - start)
		first := head.DetachSegment()
		links := cap(first.links)
		tail := head.Clone(nil)
		tail.StartRecording(int(start + window - at))
		later := settle(tail, start+window-at, true)
		if later == nil {
			t.Fatalf("seam %d: the second segment did not settle", at)
		}
		got := first.Join(later)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seam %d: the joined transcript differs from the whole one", at)
		}
		if cap(got.links) != links {
			t.Errorf("seam %d: the join reallocated the link events (%d → %d)", at, links, cap(got.links))
		}
	}
}
