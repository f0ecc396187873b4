package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/obs"
	"nocalert/internal/rng"
	"nocalert/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate the testdata/golden_*.json fixtures")

// WriteJSON writes the fixture as indented JSON (stable for diffs), the
// form -update-golden commits.
func (f *Fixture) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

const (
	goldenPath      = "../../testdata/golden_4x4_seed3.json"
	goldenPath8x8   = "../../testdata/golden_8x8_seed3.json"
	goldenPath16x16 = "../../testdata/golden_16x16_seed3.json"
)

// GoldenSpec is the campaign the committed fixture pins: the standard
// 4x4 test configuration with a 96-fault universe (24 per CI shard).
// The CI matrix runs exactly this spec as 4 shards and the merge step
// compares against the same fixture this test enforces.
func GoldenSpec() Spec {
	return Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     96,
	}
}

// TestGoldenFixture4x4 regenerates the golden campaign and fails if
// any fault's verdict, outcome, latency or checker attribution drifted
// from the committed fixture. Run `make golden` (go test -run
// TestGoldenFixture -update-golden) after an intentional behaviour
// change and commit the diff.
func TestGoldenFixture4x4(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// Golden8x8Spec is the paper-scale pinned campaign: the 8×8 mesh at
// the throughput benchmark's operating point. Its fixture is what the
// identity CI gate and the SoA bench row both anchor to.
func Golden8x8Spec() Spec {
	return Spec{
		MeshW: 8, MeshH: 8, VCs: 4,
		InjectionRate: 0.05,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 500,
		DrainDeadline: 10000,
		Epoch:         1500,
		HopLatency:    1,
		NumFaults:     64,
	}
}

// TestGoldenFixture8x8 is TestGoldenFixture4x4 at paper scale.
func TestGoldenFixture8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath8x8)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath8x8, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath8x8)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// Golden16x16Spec is the scale-out pinned campaign: a 16×16 mesh at a
// low injection rate, matching the Makefile's REPORT_16X16_FLAGS.
// Its fixture keeps the frontier engine honest on a mesh large enough
// that most routers stay outside the fault's cone of influence.
func Golden16x16Spec() Spec {
	return Spec{
		MeshW: 16, MeshH: 16, VCs: 4,
		InjectionRate: 0.02,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 500,
		DrainDeadline: 10000,
		Epoch:         1500,
		HopLatency:    1,
		NumFaults:     32,
	}
}

// TestGoldenFixture16x16 is TestGoldenFixture4x4 at 16×16 scale.
func TestGoldenFixture16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden16x16Spec()
	got := NewFixture(spec, unshardedRecords(t, spec))

	if *updateGolden {
		f, err := os.Create(goldenPath16x16)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", goldenPath16x16, len(got.Records))
		return
	}

	data, err := os.ReadFile(goldenPath16x16)
	if err != nil {
		t.Fatalf("no golden fixture (run `make golden` to create it): %v", err)
	}
	golden, err := ReadFixture(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) drifted from the golden fixture; if intentional, run `make golden` and commit", len(diffs))
	}
}

// TestGoldenEngineIdentity runs the golden 4×4 campaign and the
// paper-scale 8×8 one on the production sweep and on the reference
// (sim.Config.DisableSoA: every node stepped, every port visited) and
// requires record-for-record identical results: verdicts, outcomes,
// detection latencies and checker attributions must not move. This is the
// in-tree half of the identity CI gate (the CI half compares the CLI's
// whole JSON reports byte-for-byte by default and under -fullsim).
func TestGoldenEngineIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	for _, spec := range []Spec{GoldenSpec(), Golden8x8Spec()} {
		prod := NewFixture(spec, unshardedRecords(t, spec))

		opts := spec.Options()
		opts.Sim.DisableSoA = true
		opts.Faults = spec.Universe()
		ref := NewFixture(spec, mustRun(t, opts).Results)

		if diffs := prod.Diff(ref); len(diffs) != 0 {
			for _, d := range diffs {
				t.Error(d)
			}
			t.Fatalf("%dx%d: %d fault(s) differ between the production sweep and the reference", spec.MeshW, spec.MeshH, len(diffs))
		}
	}
}

// TestFrontierEngineIdentity is TestGoldenEngineIdentity for the run
// paths: the golden 4×4 campaign run on the divergence frontier with its
// exits (the default) must be record-for-record identical to the same
// campaign on the full-simulation reference (FullSim). This is the
// in-tree half of the identity CI gate (the CI half compares the CLI's
// whole JSON reports byte-for-byte on three campaigns).
func TestFrontierEngineIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	frontier := NewFixture(spec, unshardedRecords(t, spec))

	opts := spec.Options()
	opts.FullSim = true
	opts.Faults = spec.Universe()
	full := NewFixture(spec, mustRun(t, opts).Results)
	// A record's fast_path says which exit resolved the run, and the
	// reference takes none; everything else must match.
	for i := range frontier.Records {
		frontier.Records[i].FastPath = false
	}

	if diffs := frontier.Diff(full); len(diffs) != 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("%d fault(s) differ between the frontier and the full-simulation reference", len(diffs))
	}
}

// runAccount is what one run of a campaign came to beyond its record:
// the exit path that resolved it and how its cycles split into stepped
// and synthesized ones (the run span's attributes).
type runAccount struct {
	exit                   ExitPath
	simulated, synthesized int64
}

// tracedRun runs the campaign under a tracer and returns its report and
// the spans it emitted, in the order they ended.
func tracedRun(t *testing.T, opts Options) (*Report, []obs.SpanRecord) {
	t.Helper()
	var stream bytes.Buffer
	tr := obs.New(obs.Options{Writer: &stream})
	opts.Tracer = tr
	rep := mustRun(t, opts)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		t.Fatal(err)
	}
	return rep, spans
}

// accountedRun runs the campaign and returns its report with one
// runAccount per run.
func accountedRun(t *testing.T, opts Options) (*Report, []runAccount) {
	t.Helper()
	acct := make([]runAccount, max(len(opts.Faults), len(opts.FaultGroups)))
	opts.OnResult = func(rec *trace.RunRecord, c RunCounts, _ float64) { acct[rec.Index].exit = exitOf(c) }
	rep, spans := tracedRun(t, opts)
	seen := 0
	for _, s := range spans {
		if s.Kind != "run" {
			continue
		}
		i, ok1 := s.Int("run_index")
		simd, ok2 := s.Int("cycles_simulated")
		synth, ok3 := s.Int("cycles_synthesized")
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("run span %s missing accounting attrs: %v", s.SpanID, s.Attrs)
		}
		acct[i].simulated, acct[i].synthesized = simd, synth
		seen++
	}
	if seen != len(acct) {
		t.Fatalf("%d run spans for %d runs", seen, len(acct))
	}
	return rep, acct
}

// TestFrontierCampaignIdentity holds the production run path — the
// frontier and its exits — to the full-simulation reference (FullSim)
// beyond the fixture TestFrontierEngineIdentity compares: whole records
// (TestDeltaVerdictOnFixtureRuns compares the same runs' verdicts counter
// for counter), and the cycle accounting of every run the default resolves
// by the full exit. Such a run ends where the reference's does, so the
// cycles it stepped and synthesized must add up to the cycles the
// reference stepped: a drain or horizon that froze and projected its
// remainder to the wrong end shows nowhere else. The three fault sets are
// frontierSets' on the 8×8 mesh.
func TestFrontierCampaignIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	undrained := 0
	for _, set := range frontierSets() {
		t.Run(set.name, func(t *testing.T) {
			opts := spec.Options()
			set.setup(&opts)
			frontRep, front := accountedRun(t, opts)
			opts.FullSim = true
			fullRep, full := accountedRun(t, opts)

			if frontRep.FrontierRuns == 0 || fullRep.FrontierRuns != 0 || fullRep.SynthesizedCycles != 0 {
				t.Fatalf("the frontier drove %d runs by default and %d under FullSim, which synthesized %d cycles",
					frontRep.FrontierRuns, fullRep.FrontierRuns, fullRep.SynthesizedCycles)
			}
			for i := range front {
				ra, rb := frontRep.Results[i], fullRep.Results[i]
				if !sameRun(ra, rb) {
					t.Errorf("run %d: records differ\n frontier %+v\n full     %+v", i, ra, rb)
				}
				if !ra.Drained {
					undrained++
				}
				a, b := front[i], full[i]
				if b.exit != ExitFull {
					t.Errorf("run %d: exit %v under FullSim", i, b.exit)
				}
				if a.exit == ExitFull && a.simulated+a.synthesized != b.simulated {
					t.Errorf("run %d: %d cycles stepped + %d synthesized on the frontier, %d stepped by the reference",
						i, a.simulated, a.synthesized, b.simulated)
				}
			}
		})
	}
	if !t.Failed() && undrained == 0 {
		t.Error("no run failed to drain: the frontier was never carried to a drain deadline")
	}
}

// frontierSet is one fault set of the 8×8 golden spec's campaign, applied
// to its options.
type frontierSet struct {
	name  string
	setup func(o *Options)
}

// frontierSets are the fault sets TestFrontierCampaignIdentity and
// TestDeltaVerdictOnFixtureRuns run on the 8×8 mesh: the golden spec's
// transients, permanent faults (credit-counter bits as the benchmark draws
// them, and VA2/SA2 grant lines, which wedge the fabric: the frontier
// carries those to the drain deadline and through the horizon, the
// reference steps every cycle of both), and one double-fault group.
func frontierSets() []frontierSet {
	spec := Golden8x8Spec()
	transients := spec.Universe()

	whole := spec
	whole.NumFaults = 0
	pools := map[fault.Kind][]fault.Fault{}
	for _, f := range whole.Universe() {
		switch f.Site.Kind {
		case fault.CreditCountReg, fault.VA2Gnt, fault.SA2Gnt:
			f.Type = fault.Permanent
			pools[f.Site.Kind] = append(pools[f.Site.Kind], f)
		}
	}
	var permanents []fault.Fault
	for _, pick := range []struct {
		kind fault.Kind
		n    int
	}{{fault.CreditCountReg, 12}, {fault.VA2Gnt, 6}, {fault.SA2Gnt, 6}} {
		pool := pools[pick.kind]
		for _, j := range rng.New(spec.Seed, uint64(pick.kind)).Perm(len(pool))[:pick.n] {
			permanents = append(permanents, pool[j])
		}
	}
	return []frontierSet{
		{"transient", func(o *Options) { o.Faults = transients }},
		// A shorter deadline and epoch: a wedged fabric steps every cycle
		// of both, under either engine.
		{"permanent", func(o *Options) { o.Faults, o.DrainDeadline, o.Forever.Epoch = permanents, 1000, 500 }},
		{"double", func(o *Options) { o.FaultGroups = [][]fault.Fault{{transients[5], transients[40]}} }},
	}
}
