package campaign

import (
	"fmt"
	"testing"
	"time"

	"nocalert/internal/fault"
	"nocalert/internal/router"
	"nocalert/internal/sim"
)

// BenchmarkFrontierCampaign times the marginal cost of a frontier-driven
// run on the two meshes the repository benchmark's cone workloads use
// (w8x8_marginal, w16x16_drain), one worker, the golden artefact built
// once outside the timer. nodes-cloned/run is how many node copies a run
// made to have a network to step, mean over the campaign run once more
// outside the timer with its runs traced (the run spans' nodes_cloned):
// the size of a run's cone, about two, where a fork that cloned the mesh
// would show 64 and 256. It is the cmd-free way to read profile shares
// (the CI bench job uploads the 8×8 one):
//
//	go test -run '^$' -bench FrontierCampaign/8x8 -benchtime 4x \
//	    -cpuprofile cpu.out ./internal/campaign
func BenchmarkFrontierCampaign(b *testing.B) {
	for _, bc := range []struct {
		w, h   int
		rate   float64
		faults int
	}{
		{8, 8, 0.05, 512},
		{16, 16, 0.02, 256},
	} {
		b.Run(fmt.Sprintf("%dx%d", bc.w, bc.h), func(b *testing.B) {
			spec := Golden8x8Spec()
			spec.MeshW, spec.MeshH, spec.InjectionRate, spec.NumFaults = bc.w, bc.h, bc.rate, bc.faults
			opts := spec.Options()
			opts.Faults = spec.Universe()
			opts.Workers = 1
			opts.GoldenCache = NewGoldenCache()
			if _, err := Run(opts); err != nil { // builds and caches the golden artefact
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.FrontierRuns == 0 {
					b.Fatal("no run was driven by the frontier")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*bc.faults)/b.Elapsed().Seconds(), "faults/s")

			var cloned int64
			_, runs := tracedRunSpans(b, opts)
			for _, s := range runs {
				n, _ := s.Int("nodes_cloned")
				cloned += n
			}
			b.ReportMetric(float64(cloned)/float64(bc.faults), "nodes-cloned/run")
		})
	}
}

// BenchmarkArmedCampaign times runs whose fault never goes quiescent, on
// the repository benchmark's w8x8_permanent campaign: the 8×8 fixture
// spec, 16 permanent credit-counter faults drawn as armedFaults draws
// them, one worker, the golden artefact built once outside the timer.
// Every run steps the window on the frontier and then the full mesh for
// the 2200 cycles to the end of its horizon, most of them a drained mesh
// with one armed router. routers-stepped/cycle says how many routers the
// steppers really stepped, mean over those runs done again by hand
// outside the timer with a counting monitor: 64 on the reference engine,
// a little over one where an armed fault costs its own router. It is the
// cmd-free way to both numbers:
//
//	go test -run '^$' -bench ArmedCampaign/8x8 -benchtime 4x \
//	    -cpuprofile cpu.out ./internal/campaign
func BenchmarkArmedCampaign(b *testing.B) {
	b.Run("8x8", func(b *testing.B) {
		spec := Golden8x8Spec()
		opts := spec.Options()
		opts.Faults = armedFaults(spec)[:16]
		opts.Workers = 1
		opts.GoldenCache = NewGoldenCache()
		if _, err := Run(opts); err != nil { // builds and caches the golden artefact
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			if rep.FastPathHits != 0 || rep.ReconvergedHits != 0 {
				b.Fatal("a permanent fault's run left by the fast path or reconverged")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(opts.Faults))/b.Elapsed().Seconds(), "faults/s")

		o, err := opts.withDefaults()
		if err != nil {
			b.Fatal(err)
		}
		o.GoldenCache = nil
		gold := builtGolden(b, &o)
		var routerCycles, cycles int64
		for _, f := range o.Faults {
			rc, c := steppedByHand(b, gold.groups[f.Cycle].gc, o, f)
			routerCycles, cycles = routerCycles+rc, cycles+c
		}
		b.ReportMetric(float64(routerCycles)/float64(cycles), "routers-stepped/cycle")
	})
}

// routerCycleCounter counts the routers and the cycles a stepper shows
// its monitors.
type routerCycleCounter struct {
	sim.BaseMonitor
	routers, cycles int64
}

func (m *routerCycleCounter) RouterCycle(*router.Router, *router.Signals) { m.routers++ }
func (m *routerCycleCounter) EndCycle(int64)                              { m.cycles++ }

// steppedByHand steps one armed fault's run the way runFrontier and
// finishRun do without fast-forward — window on the frontier, full mesh
// from the golden window-end state through drain and horizon — and
// returns how many router steps and cycles that took.
func steppedByHand(tb testing.TB, gc *groupCtx, o Options, f fault.Fault) (routerCycles, cycles int64) {
	var w worker
	var st runStats
	n, err := w.fork(gc, fault.NewPlane(f), &st, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var count routerCycleCounter
	n.AttachMonitor(&count)
	if fv := findForever(n); fv != nil {
		fv.Follow(gc.gfv)
	}
	fr := sim.NewFrontier(n, gc.rec, []int{f.Site.Router})
	for c := int64(0); c < o.PostInjectRun; c++ {
		fr.Step()
	}
	if n.FaultsQuiescent() {
		tb.Fatalf("%v went quiescent", &f)
	}
	fr.MaterializeAll(gc.wend)
	n.StopInjection()
	for end := n.Cycle() + o.DrainDeadline; n.Cycle() < end && !n.Quiet(); {
		n.Step()
	}
	for horizon := foreverHorizon(n.Cycle(), o.Forever); n.Cycle() < horizon; {
		n.Step()
	}
	return count.routers, count.cycles
}

// BenchmarkGoldenWarmup times the golden warm-up alone, in the shape the
// paper's injection points give it: the fault-free mainline stepped to
// cycle 16 000 and one group context built there (window, drain, settle,
// horizon, template). It is what w8x8_fixedcost and svc_fleet8 spend
// their time in, without cmd or faulty runs around it:
//
//	go test -run '^$' -bench GoldenWarmup/8x8 -benchtime 4x \
//	    -cpuprofile cpu.out ./internal/campaign
func BenchmarkGoldenWarmup(b *testing.B) {
	for _, bc := range []struct {
		w, h int
		rate float64
	}{
		{8, 8, 0.05},
		{16, 16, 0.02},
	} {
		b.Run(fmt.Sprintf("%dx%d", bc.w, bc.h), func(b *testing.B) {
			spec := Golden8x8Spec()
			spec.MeshW, spec.MeshH, spec.InjectionRate = bc.w, bc.h, bc.rate
			spec.InjectCycle, spec.NumFaults = 16000, 1
			opts := spec.Options()
			opts.Faults = spec.Universe()
			o, err := opts.withDefaults()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if builtGolden(b, &o).groups[16000].gc.rec == nil {
					b.Fatal("the golden continuation recorded no transcript")
				}
			}
		})
	}
}

// BenchmarkFirstVerdict times the two things the warm-up pipeline is
// about on the campaign it is about — the paper's injection instants
// 0/16000/32000 on the 8×8 mesh, 24 faults, one worker, what the
// repository benchmark's w8x8_fixedcost runs at the driver's settings:
// how long the first verdict takes (ms/first-verdict: the Run call to the
// first Progress callback, one group context and one run) and how long
// the campaign (ms/campaign). It is the cmd-free way to both numbers:
//
//	go test -run '^$' -bench FirstVerdict/8x8 -benchtime 4x \
//	    -cpuprofile cpu.out ./internal/campaign
func BenchmarkFirstVerdict(b *testing.B) {
	b.Run("8x8", func(b *testing.B) {
		opts := multicycleSample(24)
		opts.Workers = 1
		var start time.Time
		var first time.Duration
		opts.Progress = func(done, _ int) {
			if done == 1 {
				first += time.Since(start)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start = time.Now()
			if _, err := Run(opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(first.Microseconds())/1e3/float64(b.N), "ms/first-verdict")
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/campaign")
	})
}
