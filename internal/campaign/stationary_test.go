package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/rng"
	"nocalert/internal/sim"
)

// permanentsOfEveryKind draws perKind permanent faults on every signal
// kind of spec's mesh, from the whole universe, deterministically in the
// spec's seed. Between them they settle every way a permanent fault can:
// unnoticed on an idle port, in a wedged fabric, and (the arbiter request
// and grant lines that keep a round-robin pointer turning, a stuck credit
// signal counting its counter round) in an orbit that never freezes.
func permanentsOfEveryKind(spec Spec, perKind int) []fault.Fault {
	spec.NumFaults = 0 // the whole universe, in enumeration order
	var kinds []fault.Kind
	pools := map[fault.Kind][]fault.Fault{}
	for _, f := range spec.Universe() {
		k := f.Site.Kind
		if pools[k] == nil {
			kinds = append(kinds, k)
		}
		f.Type = fault.Permanent
		pools[k] = append(pools[k], f)
	}
	var out []fault.Fault
	for _, k := range kinds {
		pool := pools[k]
		for _, j := range rng.New(spec.Seed, 0x9e37+uint64(k)).Perm(len(pool))[:perKind] {
			out = append(out, pool[j])
		}
	}
	return out
}

// TestStationaryFastForwardIdentity holds the fast-forward of a run whose
// fault is still armed — a permanent fault is stationary, and a network
// that has stopped changing under it is a fixed point (ffProbe) — to the
// full-simulation reference (FullSim), which steps every cycle: permanent
// faults on every signal kind, on the 4×4 and the 8×8 mesh. Both reports
// must be the same bytes, every run the same result (Fired, Detected,
// DetectCycle, Drained, the three outcomes and the rest), and every run
// must end on the same cycle: what the default stepped and synthesized,
// the reference stepped. By default a quarter of the campaign's cycles at
// least must have been synthesized (the runs that settle in an orbit step
// all of theirs), and some runs must have wedged the fabric; the
// reference synthesizes none. Periodic intermittent faults turn on and
// off with the cycle count: their runs must synthesize nothing on either
// path.
func TestStationaryFastForwardIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	small, large := GoldenSpec(), Golden8x8Spec()
	// A wedged fabric steps its whole drain deadline and horizon when
	// nothing fast-forwards it: keep both short.
	small.DrainDeadline = 1500
	large.DrainDeadline, large.Epoch = 1500, 500
	for _, tc := range []struct {
		name    string
		spec    Spec
		perKind int
	}{
		{"4x4", small, 4},
		{"8x8", large, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			permanents := permanentsOfEveryKind(tc.spec, tc.perKind)
			intermittents := append([]fault.Fault(nil), permanents[:len(permanents)/4]...)
			for i := range intermittents {
				f := &intermittents[i]
				f.Type, f.Period, f.Duty = fault.Intermittent, int64(2+i%7), 1
			}
			for _, set := range []struct {
				name     string
				faults   []fault.Fault
				periodic bool
			}{{"permanent", permanents, false}, {"periodic intermittent", intermittents, true}} {
				var want *Report
				var wantBytes []byte
				for _, arm := range []struct {
					name    string
					fullSim bool
				}{{"default", false}, {"fullsim", true}} {
					opts := tc.spec.Options()
					opts.Faults = set.faults
					opts.FullSim = arm.fullSim
					rep := mustRun(t, opts)
					if rep.FastPathHits != 0 || rep.ReconvergedHits != 0 {
						t.Errorf("%s, %s: %d fast-path and %d reconverged exits among faults that never go quiescent", set.name, arm.name, rep.FastPathHits, rep.ReconvergedHits)
					}
					if (rep.FrontierRuns == len(set.faults)) == arm.fullSim {
						t.Errorf("%s, %s: the frontier drove %d of %d runs", set.name, arm.name, rep.FrontierRuns, len(set.faults))
					}
					total := rep.SimulatedCycles + rep.SynthesizedCycles
					switch {
					case arm.fullSim || set.periodic:
						if rep.SynthesizedCycles != 0 {
							t.Errorf("%s, %s: %d cycles synthesized", set.name, arm.name, rep.SynthesizedCycles)
						}
					case 4*rep.SynthesizedCycles < total:
						t.Errorf("%s, %s: %d of %d cycles synthesized: the fixed-point exit went all but unexercised", set.name, arm.name, rep.SynthesizedCycles, total)
					}
					got := reportBytes(t, rep)
					if want == nil {
						want, wantBytes = rep, got
						wedged := 0
						for i := range rep.Results {
							if !rep.Results[i].Drained {
								wedged++
							}
						}
						if !set.periodic && wedged < len(set.faults)/10 {
							t.Errorf("%s: %d of %d runs wedged the fabric: freezing short of a drain went unexercised", set.name, wedged, len(set.faults))
						}
						t.Logf("%s: %d runs, %d wedged, %d cycles stepped and %d synthesized", set.name, len(set.faults), wedged, rep.SimulatedCycles, rep.SynthesizedCycles)
						continue
					}
					if !bytes.Equal(got, wantBytes) {
						t.Errorf("%s, %s: report differs from the default's (%d vs %d bytes)", set.name, arm.name, len(got), len(wantBytes))
					}
					for i := range rep.Results {
						ra, rb := rep.Results[i], want.Results[i]
						// The verdict's sample reasons come out of a map walk in
						// golden.Compare: same set, any order.
						ra.Verdict.Reasons, rb.Verdict.Reasons = nil, nil
						if !reflect.DeepEqual(ra, rb) {
							t.Errorf("%s, %s: run %d differs\n got %+v\nwant %+v", set.name, arm.name, i, ra, rb)
						}
					}
					if stepped := want.SimulatedCycles + want.SynthesizedCycles; rep.SimulatedCycles != stepped {
						t.Errorf("%s, %s: %d cycles stepped, the default's stepped and synthesized add up to %d: a frozen tail was projected to the wrong end",
							set.name, arm.name, rep.SimulatedCycles, stepped)
					}
				}
			}
		})
	}
}

// engineTotals is everything a run's result reads off its NoCAlert engine.
type engineTotals struct {
	total, first, firstHighRisk int64
	perChecker, alone           [core.NumCheckers + 1]int64
	fired, firstCycle           []core.CheckerID
	hist                        []int64
}

func totalsOf(e *core.Engine) engineTotals {
	tt := engineTotals{
		total: e.AssertionCount(), first: e.FirstDetection(), firstHighRisk: e.FirstHighRiskDetection(),
		fired: e.FiredCheckers(), firstCycle: e.FirstCycleCheckers(), hist: e.SimultaneityHistogram(),
	}
	for id := core.CheckerID(1); id <= core.NumCheckers; id++ {
		tt.perChecker[id], tt.alone[id] = e.CheckerCount(id), e.CheckerAloneCount(id)
	}
	return tt
}

// TestFrozenStationaryRunIsAFixedPoint is the fast-forward's contract
// under an armed fault, checked the direct way. Every run of permanent
// faults on every signal kind (4×4) is stepped twice in lockstep: as the
// campaign steps it — on the frontier, its ForEVeR monitor a follower,
// ffProbe asked at every boundary from the window end on — and on the
// full mesh with nothing skipped. Where the probe calls a run frozen while
// its plane is armed, the full-mesh run is stepped on for three epochs:
// its StaticFingerprint must not move, nor any FiredAt stamp; the engine
// that stepped those cycles must end with the accumulators AdvanceSteady
// projected from the freeze, and the monitor that saw them with the first
// flag ProjectFrozenDetection projected.
func TestFrozenStationaryRunIsAFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := GoldenSpec()
	spec.DrainDeadline = 1500 // a run that never freezes is stepped twice to the deadline and two epochs on
	faults := permanentsOfEveryKind(spec, 3)
	opts := spec.Options()
	opts.Faults = faults
	o, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	gold := builtGolden(t, &o)
	ahead := 3 * o.Forever.Epoch
	var wa, wb worker
	frozen, wedged, asserting, flagged := 0, 0, 0, 0
	for i, f := range faults {
		gc := gold.groups[f.Cycle].gc
		var st runStats
		pa, pb := fault.NewPlane(f), fault.NewPlane(f)
		na, ea, fa := wa.forkRun(gc, o, pa, false, &st, nil)
		nb, eb, fb := wb.forkRun(gc, o, pb, false, &st, nil)
		fa.Follow(gc.gfv)
		fr := sim.NewFrontier(na, gc.rec, []int{f.Site.Router})
		for c := int64(0); c < o.PostInjectRun; c++ {
			fr.Step()
			nb.Step()
		}
		na.StopInjection()
		nb.StopInjection()
		var probe ffProbe
		froze := false
		for end := nb.Cycle() + o.DrainDeadline + 2*o.Forever.Epoch; nb.Cycle() < end; {
			if froze = probe.frozen(fr, na, ea, fa); froze {
				break
			}
			fr.Step()
			nb.Step()
		}
		if !froze {
			continue
		}
		if na.FaultsQuiescent() || !na.FaultsStationary() {
			t.Fatalf("run %d (%v): frozen under a plane that is quiescent (%t) or not stationary", i, &f, na.FaultsQuiescent())
		}
		frozen++
		at := nb.Cycle()
		if !nb.Quiet() {
			wedged++
		}
		// What the campaign computes at the freeze without stepping on.
		before := ea.AssertionCount()
		probe.extend(ea, ahead)
		if ea.AssertionCount() != before {
			asserting++
		}
		fd := fa.FirstDetectionAfter(gc.cycle)
		if fd < 0 {
			fd = fa.ProjectFrozenDetection(at, at+ahead)
		}
		if fd >= at {
			flagged++
		}
		// And what stepping on gives.
		fp, fired := nb.StaticFingerprint(), pb.FiredAt(0)
		if got := pa.FiredAt(0); got != fired {
			t.Fatalf("run %d (%v): FiredAt %d on the frontier, %d on the full mesh", i, &f, got, fired)
		}
		for c := int64(0); c < ahead; c++ {
			nb.Step()
			if got := nb.StaticFingerprint(); got != fp {
				t.Fatalf("run %d (%v): called frozen at cycle %d, the full mesh's static fingerprint moved at cycle %d", i, &f, at, nb.Cycle())
			}
			if got := pb.FiredAt(0); got != fired {
				t.Fatalf("run %d (%v): called frozen at cycle %d, FiredAt moved from %d to %d at cycle %d", i, &f, at, fired, got, nb.Cycle())
			}
		}
		if got, want := totalsOf(ea), totalsOf(eb); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%v): frozen at cycle %d, AdvanceSteady projects %+v over %d cycles, stepping them gives %+v", i, &f, at, got, ahead, want)
		}
		if got := fb.FirstDetectionAfter(gc.cycle); got != fd {
			t.Errorf("run %d (%v): frozen at cycle %d, ForEVeR's first flag projected at %d, stepping %d cycles on gives %d", i, &f, at, fd, ahead, got)
		}
	}
	t.Logf("%d runs: %d frozen under an armed plane, %d of them wedged, %d asserting in the steady state, %d flagged by ForEVeR past the freeze", len(faults), frozen, wedged, asserting, flagged)
	if frozen < len(faults)/2 || wedged == 0 || asserting == 0 || flagged == 0 {
		t.Fatal("the oracle is vacuous")
	}
}

// TestArmedRunCostsItsCone counts, from the run spans of the sixteen
// permanent credit-counter faults of the armed fixture, what a run whose
// fault never goes quiescent costs: the 500 cycles of its window and the
// 41 until its cone has stopped changing, exactly, on a network of the
// nodes its frontier ever tracked — members under an armed fault never
// retire, so that is the frontier's peak and one node a join — and never
// the mesh. The exit is still "full" (the run took no shortcut golden
// would have had to vouch for) and its fast-forward span says what kind
// of plane it froze under.
func TestArmedRunCostsItsCone(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Golden8x8Spec()
	spec.DrainDeadline, spec.Epoch = 1500, 500
	o := spec.Options()
	o.Faults = armedFaults(spec)[:16]
	o.Workers = 1
	rep, spans := tracedRun(t, o)
	if rep.FrontierRuns != len(o.Faults) {
		t.Fatalf("the frontier drove %d of %d runs", rep.FrontierRuns, len(o.Faults))
	}
	runs, stationary := 0, 0
	for _, s := range spans {
		if s.Kind == "phase" && s.Name == "fast-forward" {
			if plane, _ := s.Attrs["plane"].(string); plane != "stationary" {
				t.Errorf("fast-forward span %s froze under a %q plane, want \"stationary\"", s.SpanID, plane)
			}
			stationary++
		}
		if s.Kind != "run" {
			continue
		}
		runs++
		stepped, _ := s.Int("cycles_simulated")
		cloned, ok := s.Int("nodes_cloned")
		peak, _ := s.Int("frontier_peak_routers")
		joins, _ := s.Int("frontier_joins")
		if stepped != 541 {
			t.Errorf("%s: %d cycles stepped, want 541", s.Name, stepped)
		}
		if !ok || cloned != peak || cloned != 1+joins || cloned >= 64 {
			t.Errorf("%s: nodes_cloned = %d (present %t) for a frontier that peaked at %d routers with %d joins", s.Name, cloned, ok, peak, joins)
		}
		if exit, _ := s.Attrs["exit"].(string); exit != ExitFull.String() {
			t.Errorf("%s: exit %q, want %q", s.Name, exit, ExitFull)
		}
	}
	if runs != len(o.Faults) || stationary != runs {
		t.Errorf("%d run spans and %d fast-forward spans for %d runs", runs, stationary, len(o.Faults))
	}
}
