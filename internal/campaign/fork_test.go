package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
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
// skip.
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
// forking off a shared mainline: every run of a campaign whose universe
// spreads over several injection cycles must give the result it gives in
// a campaign of its own injection cycle alone, whose golden mainline
// stops there and snapshots nothing before — at 4×4 and at a small 8×8
// sample, so forks genuinely skip prefixes.
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
			o := multiCycleOptions(tc.mesh, tc.faults, 7, tc.cycles, 200, 2500, 300)
			rep := mustRun(t, o)
			if rep.ForkedRuns == 0 {
				t.Fatal("no run warm-started above cycle 0; the multi-cycle premise is broken")
			}
			for _, c := range tc.cycles {
				alone := o
				alone.Faults = nil
				var idx []int
				for i, f := range o.Faults {
					if f.Cycle == c {
						alone.Faults = append(alone.Faults, f)
						idx = append(idx, i)
					}
				}
				aloneRep := mustRun(t, alone)
				for k, i := range idx {
					// The verdict's reasons list missing flits in map order.
					got, want := rep.Results[i], aloneRep.Results[k]
					got.Verdict.Reasons, want.Verdict.Reasons = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Errorf("run %d (%v): %+v in the multi-cycle campaign, %+v in one of cycle %d alone",
							i, &o.Faults[i], got, want, c)
					}
				}
			}
			t.Logf("%s: %d/%d runs forked, %d prefix cycles skipped, %d snapshots (%d bytes)",
				tc.name, rep.ForkedRuns, len(rep.Results), rep.WarmstartCyclesSaved,
				rep.SnapshotCount, rep.SnapshotBytes)
		})
	}
}

// fortyEightCycles is the 4×4 campaign of TestEveryRunForksAtItsCycle:
// 96 faults dealt round-robin over 48 injection cycles, 100 apart.
func fortyEightCycles() Spec {
	spec := Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.1,
		Seed:          5,
		InjectCycle:   100,
		PostInjectRun: 300,
		DrainDeadline: 4000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     96,
	}
	for c := int64(100); c <= 4800; c += 100 {
		spec.InjectCycles = append(spec.InjectCycles, c)
	}
	return spec
}

// fortyEightCyclesDigest is the SHA-256 of the report `faultcampaign
// -mesh 4x4 -rate 0.1 -seed 5 -inject 100,200,…,4800 -faults 96 -post 300
// -drain 4000 -epoch 400 -json` writes, taken when the golden run kept 32
// snapshots at most and forks replayed the gap from the nearest one.
const fortyEightCyclesDigest = "a36e416cec798a1b47ec382b266bfcbffed01a5270c5af9cd0641a0904b2be46"

// TestEveryRunForksAtItsCycle holds a campaign with many distinct
// injection cycles to the rule that the golden run snapshots every one of
// them: one snapshot a cycle, every run forked at its own injection cycle
// with nothing to replay, and every frontier run copying its cone, not the
// mesh. Its report is the reference path's, and the pinned one.
func TestEveryRunForksAtItsCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := fortyEightCycles()
	o := spec.Options()
	o.Faults = spec.Universe()
	o.Workers = 2
	rep, runs := tracedRunSpans(t, o)
	if rep.SnapshotCount != len(spec.InjectCycles) {
		t.Errorf("%d snapshots for %d injection cycles", rep.SnapshotCount, len(spec.InjectCycles))
	}
	nodes := int64(spec.MeshW * spec.MeshH)
	frontier := 0
	for _, s := range runs {
		inject, _ := s.Int("inject_cycle")
		if fork, ok := s.Int("fork_cycle"); !ok || fork != inject {
			t.Errorf("%s injects at cycle %d and forked at %d (present %t)", s.Name, inject, fork, ok)
		}
		if _, ok := s.Int("frontier_peak_routers"); !ok {
			continue
		}
		frontier++
		if cloned, _ := s.Int("nodes_cloned"); cloned >= nodes {
			t.Errorf("%s is a frontier run and copied %d nodes of %d", s.Name, cloned, nodes)
		}
	}
	if frontier != len(runs) {
		t.Errorf("%d of %d runs were driven by the frontier", frontier, len(runs))
	}
	got := reportBytes(t, rep)
	if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != fortyEightCyclesDigest {
		t.Errorf("report SHA-256 %x, want %s", sum, fortyEightCyclesDigest)
	}
	ref := o
	ref.FullSim, ref.Tracer = true, nil
	if want := reportBytes(t, mustRun(t, ref)); !bytes.Equal(got, want) {
		t.Errorf("report differs from FullSim's:\n got: %s\nwant: %s", got, want)
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
