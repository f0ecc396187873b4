package campaign

import (
	"bytes"
	"os"
	"testing"

	"nocalert/internal/obs"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// junkNetwork returns a network of o's geometry that has nothing to do
// with o's campaign: another seed, four times the traffic, stepped to a
// cycle no fork point stands at. Cloned over a worker's network it leaves
// every router, NI, buffer and RNG stream holding state no run of the
// campaign may read.
func junkNetwork(t *testing.T, o Options, seed uint64, cycles int64) *sim.Network {
	t.Helper()
	cfg := o.Sim
	cfg.Seed, cfg.InjectionRate = seed, 4*cfg.InjectionRate
	n, err := sim.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(cycles)
	return n
}

// poisonWorkers makes every worker's network a copy of junk before each of
// its runs, for the rest of the test.
func poisonWorkers(t *testing.T, junk *sim.Network) {
	t.Helper()
	beforeRun = func(w *worker) { w.net = junk.CloneInto(w.net, nil) }
	t.Cleanup(func() { beforeRun = nil })
}

// TestRunsNeverReadAStaleWorkerNetwork is the poison test for the fork
// that copies a run's cone and not the mesh (worker.forkCone): whatever
// the worker's network holds when a run begins — here another traffic
// process's whole mesh, cloned over it before every single run; in the
// multi-cycle campaign also, without any help, the nodes the runs of the
// injection cycle before left behind — the campaign's report is the
// committed fixture, byte for byte: the 8×8 fixture campaign, the
// multi-cycle one and the armed one (whose runs go back to the full mesh
// at the window end, from the golden window-end state), each on four
// workers filling a golden cache and on one worker reading it warm.
func TestRunsNeverReadAStaleWorkerNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec8x8 := Golden8x8Spec()
	fixture8x8 := spec8x8.Options()
	fixture8x8.Faults = spec8x8.Universe()
	armedSpec := Golden8x8Spec()
	armedSpec.DrainDeadline, armedSpec.Epoch = 1500, 500 // as TestArmedFaultReportFixture has them
	armed := armedSpec.Options()
	armed.Faults = armedFaults(armedSpec)
	for _, tc := range []struct {
		name string
		opts Options
		path string
	}{
		{"8x8", fixture8x8, "../../testdata/report_8x8_seed3.json"},
		{"multicycle", multicycleOptions(), multicycleReportPath},
		{"armed", armed, armedReportPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			poisonWorkers(t, junkNetwork(t, tc.opts, 77, 333))
			cache := NewGoldenCache()
			for _, how := range []struct {
				name    string
				workers int
			}{{"four workers, cold cache", 4}, {"one worker, warm cache", 1}} {
				o := tc.opts
				o.Workers, o.GoldenCache = how.workers, cache
				rep := mustRun(t, o)
				if rep.FrontierRuns != len(o.Faults) {
					t.Errorf("%s: %d of %d runs were driven by the frontier", how.name, rep.FrontierRuns, len(o.Faults))
				}
				if got := reportBytes(t, rep); !bytes.Equal(got, want) {
					t.Errorf("%s: report over poisoned worker networks differs from %s:\n got: %s\nwant: %s", how.name, tc.path, got, want)
				}
			}
		})
	}
}

// tracedRunSpans runs o with every run traced and returns its report and
// run spans.
func tracedRunSpans(tb testing.TB, o Options) (*Report, []obs.SpanRecord) {
	tb.Helper()
	var stream bytes.Buffer
	o.Tracer = obs.New(obs.Options{Writer: &stream})
	rep, err := Run(o)
	if err == nil {
		err = o.Tracer.Close()
	}
	if err != nil {
		tb.Fatal(err)
	}
	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		tb.Fatal(err)
	}
	var runs []obs.SpanRecord
	for _, s := range spans {
		if s.Kind == "run" {
			runs = append(runs, s)
		}
	}
	if len(runs) != len(o.Faults) {
		tb.Fatalf("%d run spans for %d runs", len(runs), len(o.Faults))
	}
	return rep, runs
}

// TestRunCopiesItsConeNotTheMesh counts node copies, from the run spans'
// nodes_cloned. On the 8×8 fixture campaign, whose snapshot stands at the
// injection cycle, a run copies the nodes its frontier ever tracked and no
// others: at least its peak membership, at most its seed and one node a
// join (a node that rejoins is not copied again), 133 nodes over the 64
// runs and never the mesh. (That the count is the tracked nodes exactly, and that the others
// are never written, is sim's TestLazyForkCopiesItsCone.) A campaign
// forking from a snapshot ring with an interval clones the whole mesh for
// every run that replays a gap — and replays it, and is verified against
// the fork-point fingerprint — and only the cone for the runs at the
// snapshot's own cycle; its report is the adaptive plan's.
func TestRunCopiesItsConeNotTheMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	t.Run("8x8 fixture", func(t *testing.T) {
		spec := Golden8x8Spec()
		o := spec.Options()
		o.Faults = spec.Universe()
		o.Workers = 1
		_, runs := tracedRunSpans(t, o)
		var total int64
		for _, s := range runs {
			cloned, ok := s.Int("nodes_cloned")
			peak, _ := s.Int("frontier_peak_routers")
			joins, _ := s.Int("frontier_joins")
			if !ok || cloned < peak || cloned > 1+joins || cloned >= 64 {
				t.Errorf("%s: nodes_cloned = %d (present %t) for a frontier that peaked at %d routers with %d joins", s.Name, cloned, ok, peak, joins)
			}
			total += cloned
		}
		if total != 133 {
			t.Errorf("%d runs copied %d nodes, want 133 (2.08 a run)", len(runs), total)
		}
	})

	t.Run("snapshot interval", func(t *testing.T) {
		mesh, cycles := topology.NewMesh(4, 4), []int64{60, 75, 90}
		adaptive := mustRun(t, multiCycleOptions(mesh, 24, 5, cycles, 150, 2000, 200))
		o := multiCycleOptions(mesh, 24, 5, cycles, 150, 2000, 200)
		o.SnapshotInterval = 64 // one snapshot, at cycle 60
		var dumps bytes.Buffer
		o.FlightRecorder = obs.NewFlightRecorder(1<<12, &dumps)
		rep, runs := tracedRunSpans(t, o)
		if got, want := reportBytes(t, rep), reportBytes(t, adaptive); !bytes.Equal(got, want) {
			t.Fatalf("report under a snapshot interval differs from the adaptive plan's (%d vs %d bytes)", len(got), len(want))
		}
		replayed, atSnapshot := 0, 0
		for _, s := range runs {
			inject, _ := s.Int("inject_cycle")
			fork, _ := s.Int("fork_cycle")
			cloned, ok := s.Int("nodes_cloned")
			if fork != 60 || !ok {
				t.Fatalf("%s forked at cycle %d, nodes_cloned present %t: want the one snapshot at 60", s.Name, fork, ok)
			}
			if inject > fork {
				replayed++
				if cloned < int64(mesh.Nodes()) {
					t.Errorf("%s replays %d cycles and cloned %d nodes: a fork that replays a gap steps the whole mesh", s.Name, inject-fork, cloned)
				}
			} else {
				atSnapshot++
				if cloned >= int64(mesh.Nodes()) {
					t.Errorf("%s forks at its injection cycle and cloned %d nodes of %d", s.Name, cloned, mesh.Nodes())
				}
			}
		}
		verified := 0
		for _, ev := range o.FlightRecorder.Events() {
			if ev.Kind == "fork_verify" && ev.Detail == "ok" && ev.Run >= 0 {
				verified++
			}
		}
		if replayed != 16 || atSnapshot != 8 || verified != replayed {
			t.Errorf("%d runs replayed a gap (%d verified against the fork-point fingerprint), %d forked at the snapshot: want 16 (16), 8", replayed, verified, atSnapshot)
		}
		if o.FlightRecorder.Dumps() != 0 {
			t.Errorf("flight recorder dumped: %s", dumps.String())
		}
	})
}
