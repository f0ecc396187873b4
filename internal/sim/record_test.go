package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"nocalert/internal/fault"
	"nocalert/internal/flit"
	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// TestRecordingFootprintPinned pins Recording.ApproxFootprintBytes to
// its documented arithmetic: every slice the transcript retains, at
// capacity, times its element size — event payloads and their keys, the
// prefix indices, the fold table and its row digests, the busy-NI bits
// and their row counts, the idle flags — and the per-event constants to
// the structs' real sizes. The campaign's campaign_timeline_bytes gauge,
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

	for _, sz := range []struct {
		name      string
		got, want uintptr
	}{
		{"recGen", recGenBytes, unsafe.Sizeof(recGen{})},
		{"recLink", recLinkBytes, unsafe.Sizeof(recLink{})},
		{"recCredit", recCreditBytes, unsafe.Sizeof(recCredit{})},
		{"flit.Flit", recEjectBytes, unsafe.Sizeof(flit.Flit{})},
	} {
		if sz.got != sz.want {
			t.Errorf("footprint counts %d bytes per %s, the struct has %d", sz.got, sz.name, sz.want)
		}
	}
	want := int64(cap(rc.gens))*24 + int64(cap(rc.genNode))*4 +
		int64(cap(rc.links))*112 + int64(cap(rc.linkSrc))*4 +
		int64(cap(rc.credits))*12 + int64(cap(rc.creditSrc))*4 +
		int64(cap(rc.sends))*4 +
		int64(cap(rc.ejectFlits))*104 + int64(cap(rc.ejectNode))*4 +
		int64(cap(rc.folds))*8 + int64(cap(rc.foldSum))*8 +
		int64(cap(rc.busy))*8 + int64(cap(rc.busyN))*4 +
		int64(cap(rc.idle)) + int64(cap(rc.body))*8 +
		int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx))*4
	if got := rc.ApproxFootprintBytes(); got != want {
		t.Fatalf("Recording.ApproxFootprintBytes() = %d, want %d", got, want)
	}
	if cap(rc.idle) != 16 || cap(rc.body) != 16 || len(rc.foldSum) != 40 || len(rc.busyN) != 40 {
		t.Fatalf("idle flags %d, fold bodies %d, row digests %d, busy counts %d: want 16, 16, 40, 40", cap(rc.idle), cap(rc.body), len(rc.foldSum), len(rc.busyN))
	}
	if got, want := len(rc.busy), 40*rc.busyWords(); got != want || rc.busyWords() != 1 {
		t.Fatalf("busy-NI bits: %d words of %d a cycle, want %d of 1", got, rc.busyWords(), want)
	}
}

// TestRecordingThroughDrain drives the golden runs the campaigns record —
// window, then drain with injection off until the transcript settles — and
// checks the two things the drain half of the transcript rests on. On
// every drain cycle every node's recorded fold must equal its fold
// recomputed from the live state, idle nodes' copied-forward folds
// included, and the recorded busy bit must be what Quiet reads. And once
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
			copied := 0
			for quietAt := int64(-1); !n.rec.settled; {
				if n.Cycle() > 5000 {
					t.Fatal("golden run did not settle")
				}
				wasIdle := slices.Clone(n.rec.idle)
				n.Step()
				if quietAt < 0 && n.Quiet() {
					quietAt = n.Cycle()
				}
				tb := n.Cycle() - 1
				folds, busy := n.rec.foldRow(tb), n.rec.busyRow(tb)
				for i := range n.routers {
					if got, want := folds[i], n.nodeFold(i); got != want {
						t.Fatalf("cycle %d node %d: recorded fold %#x, recomputed %#x", tb, i, got, want)
					}
					if got, want := busy[i/64]>>(i%64)&1 == 1, n.nis[i].busy(); got != want {
						t.Fatalf("cycle %d node %d: recorded busy bit %t, NI busy %t", tb, i, got, want)
					}
					if wasIdle[i] && n.rec.idle[i] {
						copied++
					}
				}
				if n.rec.settled && quietAt < 0 {
					t.Fatalf("cycle %d: transcript settled on a network that is not quiet", tb)
				}
			}
			if copied == 0 {
				t.Fatal("no fold was copied forward: the drain never had an idle node")
			}
			rec := n.StopRecording()
			if rec.injectEnd != 500 {
				t.Fatalf("injection recorded as ending at cycle %d, want 500", rec.injectEnd)
			}

			end := n.Cycle()
			n.StartRecording(50)
			n.Run(50)
			tail := n.StopRecording()
			if len(tail.links)+len(tail.credits)+len(tail.sends)+len(tail.ejectNode)+len(tail.gens) != 0 {
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
	withRec := n.ApproxFootprintBytes()
	rc := n.StopRecording()
	if got, want := withRec, bare+rc.ApproxFootprintBytes(); got != want {
		t.Fatalf("footprint with transcript = %d, want bare %d + transcript %d = %d",
			got, bare, rc.ApproxFootprintBytes(), want)
	}
	if got := n.ApproxFootprintBytes(); got != bare {
		t.Fatalf("footprint after StopRecording = %d, want bare %d", got, bare)
	}
}

// TestRecordingKeyedLookups holds the transcript's keyed lookups to the
// linear scans they replaced. Every cycle's slice of every event key
// array must be ascending (what the binary search rests on: Step walks
// NIs and stepped routers by id, under either sweep engine), and for
// every cycle and node, of must return exactly the indices whose key is
// the node and around exactly those whose key is within a mesh row of it
// — which must include every event that names the node as its target.
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
			cfg := Config{Router: router.Default(topology.NewMesh(tc.w, tc.h)), InjectionRate: tc.rate, Seed: 5, DisableSoA: tc.refEng}
			n := MustNew(cfg, nil)
			n.Run(100)
			n.StartRecording(150)
			n.Run(150)
			rc := n.StopRecording()

			kinds := []struct {
				name      string
				keys, idx []int32
				target    func(k int) int // the node event k is addressed to, -1 if none
			}{
				{"gens", rc.genNode, rc.genIdx, func(int) int { return -1 }},
				{"links", rc.linkSrc, rc.linkIdx, func(k int) int { return int(rc.links[k].dst) }},
				{"credits", rc.creditSrc, rc.credIdx, func(k int) int { return int(rc.credits[k].dst) }},
				{"sends", rc.sends, rc.sendIdx, func(int) int { return -1 }},
				{"ejects", rc.ejectNode, rc.ejectIdx, func(int) int { return -1 }},
			}
			for _, kind := range kinds {
				if len(kind.keys) == 0 {
					t.Fatalf("%s: nothing recorded; raise the rate or the window", kind.name)
				}
				for c := 0; c < rc.Cycles(); c++ {
					cyc := rc.start + int64(c)
					lo, hi := rc.seg(kind.idx, cyc)
					if !slices.IsSorted(kind.keys[lo:hi]) {
						t.Fatalf("%s cycle %d: keys %v are not ascending", kind.name, cyc, kind.keys[lo:hi])
					}
					for node := 0; node < rc.nodes; node++ {
						var own, near []int
						for k := lo; k < hi; k++ {
							key := int(kind.keys[k])
							if key == node {
								own = append(own, k)
							}
							if key >= node-tc.w && key <= node+tc.w {
								near = append(near, k)
							} else if kind.target(k) == node {
								t.Fatalf("%s cycle %d: event %d from node %d targets node %d, more than a row away", kind.name, cyc, k, key, node)
							}
						}
						if a, b := rc.of(kind.keys, kind.idx, cyc, node); !slices.Equal(indexRange(a, b), own) {
							t.Fatalf("%s cycle %d node %d: of = [%d,%d), linear scan finds %v", kind.name, cyc, node, a, b, own)
						}
						if a, b := rc.around(kind.keys, kind.idx, cyc, node, tc.w); !slices.Equal(indexRange(a, b), near) {
							t.Fatalf("%s cycle %d node %d: around = [%d,%d), linear scan finds %v", kind.name, cyc, node, a, b, near)
						}
					}
				}
			}
			// Past the stored cycles of a transcript every lookup is empty.
			past := rc.start + int64(rc.Cycles())
			if a, b := rc.of(rc.linkSrc, rc.linkIdx, past, 3); a != b {
				t.Fatalf("of past the last cycle = [%d,%d)", a, b)
			}
			if a, b := rc.around(rc.linkSrc, rc.linkIdx, past, 3, tc.w); a != b {
				t.Fatalf("around past the last cycle = [%d,%d)", a, b)
			}
		})
	}
}

// indexRange lists lo..hi-1 (nil when empty, like an empty scan result).
func indexRange(lo, hi int) []int {
	var out []int
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// TestRecordingFoldsAnUpsetIdleRouter: closeCycle copies an idle node's
// fold body forward instead of folding it again, and an upset that lands
// in an idle router's route register leaves the router idle with another
// register file. The node is therefore not idle, to closeCycle, on the
// cycles of its own fault window; every other node keeps the copy.
func TestRecordingFoldsAnUpsetIdleRouter(t *testing.T) {
	const host, strike = 5, 40
	site := fault.Site{Router: host, Kind: fault.VCRouteReg, Port: int(topology.East), VC: 1, Width: router.DirWidth}
	plane := fault.NewPlane(fault.Fault{Site: site, Bit: 1, Cycle: strike, Type: fault.Transient})
	n := MustNew(Config{Router: router.Default(topology.NewMesh(4, 4)), InjectionRate: 0, Seed: 3}, plane)
	n.StartRecording(80)
	before := n.nodeFold(host)
	for n.Cycle() < 80 {
		n.Step()
		tb := n.Cycle() - 1
		for id, fold := range n.rec.foldRow(tb) {
			if want := n.nodeFold(id); fold != want {
				t.Fatalf("cycle %d node %d: recorded fold %#x, the node folds to %#x", tb, id, fold, want)
			}
		}
	}
	if plane.FiredAt(0) != strike || n.nodeFold(host) == before || !n.Router(host).Inert() {
		t.Fatalf("the upset (fired at %d) was meant to change idle router %d's registers and leave it idle", plane.FiredAt(0), host)
	}
}
