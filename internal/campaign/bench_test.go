package campaign

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFrontierCampaign times the marginal cost of a frontier-driven
// run on the two meshes the repository benchmark's cone workloads use
// (w8x8_marginal, w16x16_drain), one worker, the golden artefact built
// once outside the timer. It is the cmd-free way to read profile shares:
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
			b.ReportMetric(float64(b.N*bc.faults)/b.Elapsed().Seconds(), "faults/s")
		})
	}
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
