package campaign

import (
	"bytes"
	"testing"
	"time"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// reportBytes renders a report's committed JSON form, the byte-identity
// currency every fork/fast-forward gate below trades in.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiCycleOptions builds a campaign whose universe spreads over
// several distinct injection cycles, so forking has real prefixes to
// skip and real gaps to replay.
func multiCycleOptions(mesh topology.Mesh, nFaults int, seed uint64, cycles []int64, post, drain, epoch int64) Options {
	rc := router.Default(mesh)
	params := fault.Params{Mesh: mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	faults := SampleFaults(params, nFaults, seed, cycles[0])
	for i := range faults {
		faults[i].Cycle = cycles[i%len(cycles)]
	}
	return Options{
		Sim:           sim.Config{Router: rc, InjectionRate: 0.12, Seed: 3},
		InjectCycle:   cycles[0],
		PostInjectRun: post,
		DrainDeadline: drain,
		Forever:       forever.Options{Epoch: epoch, HopLatency: 1},
		Faults:        faults,
		Workers:       1,
	}
}

// TestForkByteIdentity is the acceptance gate for injection-point
// forking: a campaign whose snapshots stand at its injection cycles must
// produce the exact WriteJSON bytes of the same campaign with one
// snapshot, at its first injection cycle, from which every later run
// replays its gap — at 4×4 and at a small 8×8 sample, over a multi-cycle
// universe so forks genuinely skip prefixes.
func TestForkByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cases := []struct {
		name   string
		mesh   topology.Mesh
		faults int
		cycles []int64
	}{
		{"4x4", topology.NewMesh(4, 4), 48, []int64{150, 400, 650}},
		{"8x8", topology.NewMesh(8, 8), 10, []int64{200, 500}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on := multiCycleOptions(tc.mesh, tc.faults, 7, tc.cycles, 200, 2500, 300)
			onRep, err := Run(on)
			if err != nil {
				t.Fatal(err)
			}
			off := multiCycleOptions(tc.mesh, tc.faults, 7, tc.cycles, 200, 2500, 300)
			off.SnapshotInterval = 1 << 30 // past the last injection cycle: one snapshot
			offRep, err := Run(off)
			if err != nil {
				t.Fatal(err)
			}
			if onRep.ForkedRuns == 0 {
				t.Fatal("no run warm-started above cycle 0; the multi-cycle premise is broken")
			}
			if offRep.SnapshotCount != 1 || offRep.WarmstartCyclesSaved >= onRep.WarmstartCyclesSaved {
				t.Fatalf("%d snapshots skip %d prefix cycles, against %d at the injection cycles: want one snapshot and replayed gaps",
					offRep.SnapshotCount, offRep.WarmstartCyclesSaved, onRep.WarmstartCyclesSaved)
			}
			if got, want := reportBytes(t, onRep), reportBytes(t, offRep); !bytes.Equal(got, want) {
				t.Fatalf("reports differ between a snapshot per injection cycle and one snapshot (%d vs %d bytes)", len(got), len(want))
			}
			t.Logf("%s: %d/%d runs forked, %d prefix cycles skipped, %d snapshots (%d bytes)",
				tc.name, onRep.ForkedRuns, len(onRep.Results), onRep.WarmstartCyclesSaved,
				onRep.SnapshotCount, onRep.SnapshotBytes)
		})
	}
}

// TestSnapshotRestoreLockstep proves a restored snapshot is the golden
// state: a clone captured mid-run must stay fingerprint-lockstep with
// the original for 100 cycles of further simulation.
func TestSnapshotRestoreLockstep(t *testing.T) {
	rc := router.Default(topology.NewMesh(4, 4))
	n, err := sim.New(sim.Config{Router: rc, InjectionRate: 0.15, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachMonitor(forever.NewMonitor(n.RouterConfig(), forever.Options{Epoch: 50, HopLatency: 1}))
	n.Run(137) // an off-boundary capture point, mid-traffic

	restored := n.CloneInto(nil, nil)
	if got, want := restored.Fingerprint(), n.Fingerprint(); got != want {
		t.Fatalf("restored fingerprint %x differs from golden %x at the capture cycle", got, want)
	}
	for i := 0; i < 100; i++ {
		n.Step()
		restored.Step()
		if got, want := restored.Fingerprint(), n.Fingerprint(); got != want {
			t.Fatalf("restored network diverged from golden at cycle %d: %x vs %x", n.Cycle(), got, want)
		}
	}
}

// TestSnapshotIntervalSweep pins that the snapshot spacing is purely a
// time/memory trade: every interval — denser than the injection grid,
// coprime to it, sparser than it, and far past the horizon — must yield
// the identical report bytes as the adaptive plan.
func TestSnapshotIntervalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mesh := topology.NewMesh(4, 4)
	cycles := []int64{60, 75, 90}
	base := multiCycleOptions(mesh, 24, 5, cycles, 150, 2000, 200)
	baseRep, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, baseRep)
	for _, interval := range []int64{1, 7, 64, 1 << 20} {
		o := multiCycleOptions(mesh, 24, 5, cycles, 150, 2000, 200)
		o.SnapshotInterval = interval
		rep, err := Run(o)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if got := reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("interval %d report differs from the adaptive plan (%d vs %d bytes)", interval, len(got), len(want))
		}
		t.Logf("interval %d: %d snapshots, %d forked, %d warm-start cycles saved",
			interval, rep.SnapshotCount, rep.ForkedRuns, rep.WarmstartCyclesSaved)
	}
}

// TestFastForwardByteIdentity runs the golden-fixture campaign by default
// and under FullSim: the drain and horizon tails the default synthesizes
// from a frozen state may only change how fast results are computed,
// never the results.
func TestFastForwardByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	onRep, acct := accountedRun(t, goldenOptions(t))
	off := goldenOptions(t)
	off.FullSim = true
	offRep := mustRun(t, off)
	// A reconverged run synthesizes its window's tail; only a run that
	// left by the full exit and still synthesized cycles was fast-forwarded.
	frozen := 0
	for _, a := range acct {
		if a.exit == ExitFull && a.synthesized > 0 {
			frozen++
		}
	}
	if frozen == 0 {
		t.Fatal("no run fast-forwarded its drain or horizon; the frozen-state probe never fired")
	}
	if offRep.SynthesizedCycles != 0 {
		t.Fatalf("%d cycles synthesized under FullSim, want 0", offRep.SynthesizedCycles)
	}
	if got, want := reportBytes(t, onRep), reportBytes(t, offRep); !bytes.Equal(got, want) {
		t.Fatalf("reports differ between the default and FullSim (%d vs %d bytes)", len(got), len(want))
	}
	t.Logf("%d runs fast-forwarded; synthesized %d cycles (simulated %d)", frozen, onRep.SynthesizedCycles, onRep.SimulatedCycles)
}

// TestMultiCycleRecordRoundTrip closes the record loop for mixed
// injection cycles: a multi-cycle campaign's NDJSON records must
// rebuild into the exact report bytes of the live run, which is what
// lets sharded multi-cycle campaigns merge bit-identically.
func TestMultiCycleRecordRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   100,
		InjectCycles:  []int64{100, 250, 420},
		PostInjectRun: 200,
		DrainDeadline: 2500,
		Epoch:         300,
		HopLatency:    1,
		NumFaults:     30,
	}
	opts := spec.Options()
	opts.Faults = spec.Universe()
	opts.Workers = 1
	var recs []trace.RunRecord
	opts.OnResult = func(i int, res *RunResult, wall time.Duration, exit ExitPath) {
		recs = append(recs, RecordFor(i, res, wall, exit == ExitFastPath))
	}
	liveRep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ReportFromRecords(spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, rebuilt), reportBytes(t, liveRep); !bytes.Equal(got, want) {
		t.Fatalf("rebuilt multi-cycle report differs from the live run (%d vs %d bytes)", len(got), len(want))
	}
	seen := map[int64]bool{}
	for _, r := range liveRep.Results {
		seen[r.Fault.Cycle] = true
	}
	for _, c := range spec.InjectCycles {
		if !seen[c] {
			t.Fatalf("no fault injected at cycle %d; round-robin restamping is broken", c)
		}
	}
}
