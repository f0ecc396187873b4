package sim

import (
	"fmt"
	"slices"
	"testing"

	"nocalert/internal/router"
	"nocalert/internal/topology"
)

// TestRecordingFootprintPinned pins Recording.ApproxFootprintBytes to
// its documented arithmetic: per-event constants times slice capacity
// plus the prefix indices, the fold table and the busy-NI bits. The campaign's
// campaign_timeline_bytes gauge and Report.TimelineBytes surface this
// number, so a silent formula drift would misreport golden-side memory.
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

	want := int64(cap(rc.gens))*32 +
		int64(cap(rc.links))*112 +
		int64(cap(rc.credits))*16 +
		int64(cap(rc.sends))*4 +
		int64(cap(rc.ejects))*104 +
		int64(cap(rc.folds))*8 +
		int64(cap(rc.busy))*8 +
		int64(cap(rc.genIdx)+cap(rc.linkIdx)+cap(rc.credIdx)+cap(rc.sendIdx)+cap(rc.ejectIdx))*4
	if got := rc.ApproxFootprintBytes(); got != want {
		t.Fatalf("Recording.ApproxFootprintBytes() = %d, want %d", got, want)
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
			if len(tail.links)+len(tail.credits)+len(tail.sends)+len(tail.ejects)+len(tail.gens) != 0 {
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
