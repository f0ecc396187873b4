package campaign

import (
	"context"
	"testing"

	"nocalert/internal/fault"
	"nocalert/internal/golden"
	"nocalert/internal/obs"
	"nocalert/internal/sim"
)

// builtGolden runs the golden warm-up of o, which has been through
// withDefaults, to its end, uncached and untraced, and returns the whole
// artefact: every groups[c].gc is there to read.
func builtGolden(tb testing.TB, o *Options) *Golden {
	tb.Helper()
	return tracedGolden(tb, o, nil)
}

// tracedGolden is builtGolden under the given golden-warmup span, which
// the build ends (nil: untraced).
func tracedGolden(tb testing.TB, o *Options, warm *obs.Span) *Golden {
	tb.Helper()
	cycles, key := o.goldenInputs()
	gold := startGolden(context.Background(), o, cycles, key, nil, warm)
	<-gold.done
	if gold.err != nil {
		tb.Fatal(gold.err)
	}
	return gold
}

// fixtureGolden builds the golden artefact of a fixture campaign and
// returns it with the defaulted options its runs execute under.
func fixtureGolden(t *testing.T, spec Spec) (*Golden, Options) {
	t.Helper()
	opts := spec.Options()
	opts.Faults = spec.Universe()
	return optionsGolden(t, opts)
}

// optionsGolden builds the golden artefact of the campaign opts describes
// and returns it with the defaulted options its runs execute under.
func optionsGolden(t *testing.T, opts Options) (*Golden, Options) {
	t.Helper()
	o, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return builtGolden(t, &o), o
}

// goldenAt returns a fault-free network of gc's campaign at the given
// cycle, stepped there from gc's snapshot the way the golden continuation
// was: injecting through the post-injection window, then not.
func goldenAt(gc *groupCtx, o Options, cycle int64) *sim.Network {
	g := gc.snap.CloneInto(nil, nil)
	for g.Cycle() < cycle {
		if g.Cycle() == gc.cycle+o.PostInjectRun {
			g.StopInjection()
		}
		g.Step()
	}
	return g
}

// TestDeltaVerdictOnFixtureRuns judges every run of the 4×4 fixture
// campaign and of TestFrontierCampaignIdentity's three 8×8 fault sets
// (transients, permanent faults, a double-fault group) twice: by the delta
// verdict the campaign itself computes for a frontier-driven run, and by
// golden.Compare over the run's full ejection log, which MaterializeAll
// rebuilds from the frontier's difference log and the transcript. The two
// must agree counter for counter; a record keeps only whether the verdict
// was malicious or unbounded, so this is where its classes are compared.
func TestDeltaVerdictOnFixtureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	judged, violations := 0, 0
	judge := func(name string, opts Options) {
		gold, o := optionsGolden(t, opts)
		var w worker
		for i, group := range o.FaultGroups {
			gc := gold.groups[group[0].Cycle].gc
			if gc.rec == nil {
				t.Fatalf("%s: no transcript: the frontier is off", name)
			}
			rec, exit, _, st := runOne(&w, gc, o, group, nil)
			if exit != ExitFull || !st.frontier {
				continue
			}
			n := w.net
			w.fr.MaterializeAll(goldenAt(gc, o, n.Cycle()))
			full := golden.Compare(gc.goldenLog, golden.FromEjections(n.Ejections(), gc.cycle), rec.Drained)
			if st.verdict != full {
				t.Errorf("%s run %d (%v): delta verdict %+v, full compare %+v", name, i, &group[0], st.verdict, full)
			}
			if rec.Malicious != !full.OK() || rec.Unbounded != full.Unbounded {
				t.Errorf("%s run %d (%v): record says malicious %t, unbounded %t; full compare %+v",
					name, i, &group[0], rec.Malicious, rec.Unbounded, full)
			}
			judged++
			if !full.OK() {
				violations++
			}
		}
	}
	spec, spec8 := GoldenSpec(), Golden8x8Spec()
	fixture := spec.Options()
	fixture.Faults = spec.Universe()
	judge("4x4", fixture)
	for _, set := range frontierSets() {
		opts := spec8.Options()
		set.setup(&opts)
		judge("8x8 "+set.name, opts)
	}
	if judged == 0 || violations == 0 {
		t.Fatalf("%d runs judged by the delta verdict, %d of them violations: the comparison is vacuous", judged, violations)
	}
}

// TestFollowerForeverAgreesWithFullFeed steps every run of the 4×4 and
// 8×8 fixture campaigns twice in lockstep — on the frontier, its ForEVeR
// monitor following the golden one and shown only the nodes the fault
// reached, and on the full mesh, its monitor shown everything — through
// window, drain and horizon, and requires the two monitors to agree at
// every cycle boundary on the first detection since injection, on the
// frozen-state projection from that boundary and on whether a
// notification is in flight. The 4×4 campaign's epoch (400) ends inside
// the window; a third campaign mistunes it to 30 cycles, which flags the
// fault-free golden run itself, so that the golden monitor's
// node-attributed flags are part of what must agree.
func TestFollowerForeverAgreesWithFullFeed(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	mistuned := GoldenSpec()
	mistuned.Epoch = 30
	for _, tc := range []struct {
		name        string
		spec        Spec
		goldenFlags bool // the fault-free run is flagged
		permEvery   int  // every so many-th fault is run again as a permanent one
	}{
		{"4x4", GoldenSpec(), false, 12},
		{"4x4-epoch30", mistuned, true, 12},
		{"8x8", Golden8x8Spec(), false, 32}, // two: each steps both meshes to the drain deadline
	} {
		t.Run(tc.name, func(t *testing.T) {
			gold, o := fixtureGolden(t, tc.spec)
			epoch := o.Forever.Epoch
			var wa, wb worker
			goldenFlags, detections, projections, armed := false, 0, 0, 0
			// Every fault as sampled, and some again as permanent faults:
			// still armed at the window end, such a run stays on the
			// frontier, its members never retiring, to the horizon.
			groups := o.FaultGroups
			for i := 0; i < len(o.FaultGroups); i += tc.permEvery {
				f := o.FaultGroups[i][0]
				f.Type = fault.Permanent
				groups = append(groups, []fault.Fault{f})
			}
			for i, group := range groups {
				gc := gold.groups[group[0].Cycle].gc
				goldenFlags = goldenFlags || gc.gfv.FirstDetectionAfter(gc.cycle) >= 0
				var st runStats
				na, _, fa := wa.forkRun(gc, o, fault.NewPlane(group...), false, &st, nil)
				nb, _, fb := wb.forkRun(gc, o, fault.NewPlane(group...), false, &st, nil)
				fa.Follow(gc.gfv)
				fr := sim.NewFrontier(na, gc.rec, []int{group[0].Site.Router})

				compare := func() {
					t.Helper()
					c := nb.Cycle()
					if a, b := fa.FirstDetectionAfter(gc.cycle), fb.FirstDetectionAfter(gc.cycle); a != b {
						t.Fatalf("run %d (%v) at cycle %d: follower's first detection %d, full feed's %d", i, &group[0], c, a, b)
					}
					if a, b := fa.PendingEmpty(), fb.PendingEmpty(); a != b {
						t.Fatalf("run %d (%v) at cycle %d: follower's PendingEmpty %t, full feed's %t", i, &group[0], c, a, b)
					}
					a, b := fa.ProjectFrozenDetection(c, c+3*epoch), fb.ProjectFrozenDetection(c, c+3*epoch)
					if a != b {
						t.Fatalf("run %d (%v) at cycle %d: follower projects a frozen detection at %d, full feed at %d", i, &group[0], c, a, b)
					}
					if b >= 0 {
						projections++
					}
				}
				compare()
				for c := int64(0); c < o.PostInjectRun; c++ {
					fr.Step()
					nb.Step()
					compare()
				}
				na.StopInjection()
				nb.StopInjection()
				// The drain as finishRun bounds it, then the horizon it
				// derives from where the drain ended.
				for end := nb.Cycle() + o.DrainDeadline; nb.Cycle() < end && !nb.Quiet(); {
					fr.Step()
					nb.Step()
					compare()
				}
				for horizon := foreverHorizon(nb.Cycle(), o.Forever); nb.Cycle() < horizon; {
					fr.Step()
					nb.Step()
					compare()
				}
				if fb.FirstDetectionAfter(gc.cycle) >= 0 {
					detections++
				}
				if !na.FaultsQuiescent() && !fr.Empty() {
					armed++
				}
			}
			if detections == 0 || projections == 0 || armed == 0 {
				t.Fatalf("%d runs with a ForEVeR detection, %d boundaries with a projected one, %d armed runs on the frontier at the horizon: the comparison is vacuous", detections, projections, armed)
			}
			if goldenFlags != tc.goldenFlags {
				t.Fatalf("the golden run flagged itself: %t, want %t", goldenFlags, tc.goldenFlags)
			}
			t.Logf("%d runs, %d with a detection, %d projected boundaries, %d armed on the frontier at the horizon", len(groups), detections, projections, armed)
		})
	}
}
