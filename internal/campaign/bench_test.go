package campaign

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nocalert/internal/obs"
)

// BenchmarkFrontierCampaign times the marginal cost of a frontier-driven
// run on the two meshes the repository benchmark's cone workloads use
// (w8x8_marginal, w16x16_drain), one worker, the golden artefact built
// once outside the timer. The campaign is run once more outside the timer
// with its runs traced, and three exact counts are read off it:
// nodes-cloned/run, how many node copies a run made to have a network to
// step (the run spans' nodes_cloned: the size of a run's cone, about two,
// where a fork that cloned the mesh would show 64 and 256);
// cycles-stepped/run, the mean of the run spans' cycles_simulated;
// stall-skips/run, the mean of their stalled_skips, the member-cycles the
// frontier did not step because the member would have repeated its last
// cycle; and reconverged-share, the report's reconverged runs over all runs
// — cycles-stepped and reconverged-share are the two that move when a run
// leaves the frontier sooner. It is the cmd-free way to
// read profile shares (the CI bench job uploads the 8×8 one):
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

			rep, runs := tracedRunSpans(b, opts)
			b.ReportMetric(spanMean(runs, "nodes_cloned"), "nodes-cloned/run")
			b.ReportMetric(spanMean(runs, "cycles_simulated"), "cycles-stepped/run")
			b.ReportMetric(spanMean(runs, "stalled_skips"), "stall-skips/run")
			b.ReportMetric(float64(rep.ReconvergedHits)/float64(len(runs)), "reconverged-share")
		})
	}
}

// BenchmarkArmedCampaign times runs whose fault never goes quiescent, on
// the repository benchmark's w8x8_permanent campaign: the 8×8 fixture
// spec, 16 permanent credit-counter faults drawn as armedFaults draws
// them, one worker, the golden artefact built once outside the timer.
// Every run stays on the frontier — its cone, the host router and what it
// disturbed — until the cone stops changing, and fast-forwards from that
// fixed point to the end of its horizon. cycles-stepped/run and
// nodes-cloned/run are means over the campaign run once more outside the
// timer with its runs traced (the run spans' cycles_simulated and
// nodes_cloned): 541 and about two, where stepping the full horizon on
// the full mesh would show 2700 and 64. It is the cmd-free way to all
// three numbers:
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

		_, runs := tracedRunSpans(b, opts)
		b.ReportMetric(spanMean(runs, "cycles_simulated"), "cycles-stepped/run")
		b.ReportMetric(spanMean(runs, "nodes_cloned"), "nodes-cloned/run")
	})
}

// spanMean returns the mean of an integer attribute over spans.
func spanMean(spans []obs.SpanRecord, key string) float64 {
	var sum int64
	for _, s := range spans {
		v, _ := s.Int(key)
		sum += v
	}
	return float64(sum) / float64(len(spans))
}

// BenchmarkGoldenWarmup times the golden warm-up alone, in the two shapes
// the repository benchmark gives it: the paper's injection points — the
// fault-free mainline stepped to cycle 16 000 and one group context built
// there (window, drain, settle, horizon), what w8x8_fixedcost and
// svc_fleet8 spend their time in — and the short injection the four
// 300-cycle workloads run (-inject300: mainline to 300, one group context),
// where the recorded window is most of the warm-up and the warm-up, at
// 16×16, most of w16x16_drain. No cmd and no faulty runs around it:
//
//	go test -run '^$' -bench GoldenWarmup/8x8 -benchtime 4x \
//	    -cpuprofile cpu.out ./internal/campaign
func BenchmarkGoldenWarmup(b *testing.B) {
	for _, bc := range []struct {
		name   string
		w, h   int
		rate   float64
		inject int64
	}{
		{"8x8", 8, 8, 0.05, 16000},
		{"16x16", 16, 16, 0.02, 16000},
		{"8x8-inject300", 8, 8, 0.05, 300},
		{"16x16-inject300", 16, 16, 0.02, 300},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := Golden8x8Spec()
			spec.MeshW, spec.MeshH, spec.InjectionRate = bc.w, bc.h, bc.rate
			spec.InjectCycle, spec.NumFaults = bc.inject, 1
			opts := spec.Options()
			opts.Faults = spec.Universe()
			o, err := opts.withDefaults()
			if err != nil {
				b.Fatal(err)
			}
			// The warm-up's own spans give the recorded window's share of it.
			var stream bytes.Buffer
			tr := obs.New(obs.Options{Writer: &stream})
			b.ReportAllocs()
			b.ResetTimer()
			var gold *Golden
			for i := 0; i < b.N; i++ {
				gold = tracedGolden(b, &o, tr.Start(nil, "phase", "golden-warmup"))
				if gold.groups[bc.inject].gc.rec == nil {
					b.Fatal("the golden continuation recorded no transcript")
				}
			}
			b.StopTimer()
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
			spans, err := obs.ReadSpans(&stream)
			if err != nil {
				b.Fatal(err)
			}
			// A split window is two window spans under one group span that
			// overlap in time: its wall time runs from the first one's start
			// to the last one's end.
			first, last := map[string]int64{}, map[string]int64{}
			for _, s := range spans {
				if s.Name != "window" {
					continue
				}
				if t, ok := first[s.ParentID]; !ok || s.StartNano < t {
					first[s.ParentID] = s.StartNano
				}
				last[s.ParentID] = max(last[s.ParentID], s.EndNano)
			}
			var window time.Duration
			for g, t := range first {
				window += time.Duration(last[g] - t)
			}
			b.ReportMetric(float64(window.Microseconds())/1e3/float64(b.N), "ms/window")
			// What the active set and the fold cache buy, as counts that
			// repeat exactly: the routers evaluated and NIs ticked by every
			// network the warm-up stepped (the mainline, and the builder's
			// fork each window, or a split window's first segment, is
			// recorded on) per mainline cycle (64 and 64, or 256 and 256, would mean the mesh is polled
			// again), the router folds
			// per cycle that found the router written since the fold before
			// and the input-VC terms they took again (every router of the
			// mesh and twenty terms a router, per recorded cycle, would mean
			// a fold hashes what nobody wrote), beside the warm-up's time per
			// router of the mesh and simulated cycle, and per router stepped
			// (ns/router-step: what a router cycle costs, where the
			// repository benchmark's sim.step_ns_per_router_cycle divides a
			// bare step by every router of the mesh, asleep ones included).
			cycles := float64(gold.endCycle)
			perWarmup := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(gold.routerSteps)/cycles, "routers-stepped/cycle")
			b.ReportMetric(float64(gold.niTicks)/cycles, "nis-ticked/cycle")
			b.ReportMetric(float64(gold.routersFolded)/cycles, "routers-folded/cycle")
			b.ReportMetric(float64(gold.vcTermsFolded)/cycles, "vc-terms-recomputed/cycle")
			b.ReportMetric(perWarmup/(cycles*float64(bc.w*bc.h)), "ns/router-cycle")
			b.ReportMetric(perWarmup/float64(gold.routerSteps), "ns/router-step")
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
