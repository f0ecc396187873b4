package campaign

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/rng"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

const multicycleReportPath = "../../testdata/report_8x8_multicycle_seed3.json"

// multicycleOptions is the campaign testdata/report_8x8_multicycle_seed3.json
// pins: the paper's injection instants 0/16000/32000 on the 8×8 mesh, 96
// faults spread round-robin over them — the repository benchmark's
// w8x8_fixedcost at full scale. The committed bytes were generated at
// the commit before the golden warm-up became a pipeline (`make golden`
// regenerates them with the CLI after an intended behaviour change).
func multicycleOptions() Options { return multicycleSample(96) }

// multicycleSample is the multi-cycle campaign with a sample of nFaults
// (24 is w8x8_fixedcost at the acceptance driver's quarter scale).
func multicycleSample(nFaults int) Options {
	spec := Golden8x8Spec()
	spec.InjectCycle, spec.InjectCycles, spec.NumFaults = 0, []int64{0, 16000, 32000}, nFaults
	o := spec.Options()
	o.Faults = spec.Universe()
	return o
}

// TestMulticycleReportFixture is the byte-identity gate for campaigns
// with several injection cycles, the ones whose runs overlap the golden
// warm-up: on one worker and on four, with no cache, a cold one or a warm
// one, and for two campaigns reading one artefact while it is being
// built, the report is the committed one.
func TestMulticycleReportFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	want, err := os.ReadFile(multicycleReportPath)
	if err != nil {
		t.Fatalf("no multi-cycle report fixture (`make golden` creates it): %v", err)
	}
	check := func(t *testing.T, what string, rep *Report) {
		t.Helper()
		if got := reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from %s:\n got: %s\nwant: %s", what, multicycleReportPath, got, want)
		}
	}
	t.Run("no cache", func(t *testing.T) {
		o := multicycleOptions()
		o.Workers = 1
		check(t, "one worker", mustRun(t, o))
	})

	// Cold on four workers, then warm on one.
	t.Run("cache", func(t *testing.T) {
		cache := NewGoldenCache()
		for _, tc := range []struct {
			how     string
			workers int
		}{{"cold", 4}, {"warm", 1}} {
			o := multicycleOptions()
			o.Workers, o.GoldenCache, o.Metrics = tc.workers, cache, metrics.NewRegistry()
			check(t, tc.how+" cache", mustRun(t, o))
			hits, misses, _ := cacheCounts(o.Metrics)
			wait := o.Metrics.Histogram(MetricGoldenGroupWait, runSecondsBounds)
			if wait.Count() != int64(len(o.Faults)) {
				t.Errorf("%s cache: %s has %d observations, want one per run", tc.how, MetricGoldenGroupWait, wait.Count())
			}
			t.Logf("%s cache: %d runs stood %.3f s waiting for their groups", tc.how, wait.Count(), wait.Sum())
			switch tc.how {
			case "cold":
				if misses != 1 || wait.Sum() <= 0 {
					t.Errorf("cold cache: misses=%d, runs waited %g s for their groups: want a build the runs waited for", misses, wait.Sum())
				}
			case "warm":
				if hits != 1 || wait.Sum() != 0 {
					t.Errorf("warm cache: hits=%d, runs waited %g s for groups that were all there", hits, wait.Sum())
				}
			}
		}
	})

	// The second campaign starts on the first's first verdict: the
	// artefact has one group out and two to come, and both campaigns
	// stream off it.
	t.Run("shared in flight", func(t *testing.T) {
		cache := NewGoldenCache()
		reg := metrics.NewRegistry()
		a, b := multicycleOptions(), multicycleOptions()
		a.Workers, a.GoldenCache, a.Metrics = 2, cache, reg
		b.Workers, b.GoldenCache, b.Metrics = 2, cache, reg
		started := make(chan struct{})
		a.Progress = func(done, _ int) {
			if done == 1 {
				close(started)
			}
		}
		var repA, repB *Report
		var errA, errB error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			repA, errA = Run(a)
		}()
		go func() {
			defer wg.Done()
			<-started
			repB, errB = Run(b)
		}()
		wg.Wait()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		check(t, "builder", repA)
		check(t, "reader of the in-flight artefact", repB)
		if hits, misses, waits := cacheCounts(reg); hits != 0 || misses != 1 || waits != 1 {
			t.Errorf("cache outcomes hits=%d misses=%d waits=%d, want one build and one campaign attached to it in flight", hits, misses, waits)
		}
	})
}

// artefactOf returns the cache's entry for the campaign's key.
func artefactOf(t *testing.T, cache *GoldenCache, o Options) *goldenEntry {
	t.Helper()
	d, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	_, _, key := d.goldenInputs()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return cache.entries[key]
}

// TestFirstVerdictBeforeLastGroup is the pipeline's point, on a traced
// campaign injecting at 0 and 16 000: the first run is over before the
// mainline has reached the second injection cycle, and its Progress call
// comes while the artefact is unfinished. Span order and cache state
// only, no clocks: the mainline has 16 000 cycles to step while the first
// group and the first run take a few thousand.
func TestFirstVerdictBeforeLastGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	o := multiCycleOptions(topology.NewMesh(4, 4), 8, 7, []int64{0, 16000}, 200, 2500, 300)
	o.GoldenCache = NewGoldenCache()
	var atFirst *goldenEntry
	builtAtFirst := false
	o.Progress = func(done, _ int) {
		if done == 1 {
			atFirst = artefactOf(t, o.GoldenCache, o)
			builtAtFirst = atFirst != nil && atFirst.g.complete()
		}
	}
	_, spans := tracedRun(t, o)
	if atFirst == nil || builtAtFirst {
		t.Errorf("at Progress(1, …) the cache entry is %v, built %t: want the artefact in flight", atFirst, builtAtFirst)
	}
	firstRunEnd, mainlineEnd := int64(math.MaxInt64), int64(0)
	for _, s := range spans {
		if s.Kind == "run" && s.EndNano < firstRunEnd {
			firstRunEnd = s.EndNano
		}
		if to, _ := s.Int("to_cycle"); s.Name == "mainline" && to == 16000 {
			mainlineEnd = s.EndNano
		}
	}
	if mainlineEnd == 0 {
		t.Fatal("no mainline span to cycle 16000 in the stream")
	}
	if firstRunEnd >= mainlineEnd {
		t.Errorf("the first run ended %v after the mainline reached cycle 16000: verdicts still wait for the whole warm-up",
			time.Duration(firstRunEnd-mainlineEnd))
	}
}

// driftPattern is uniform traffic for the generators that drew its first
// `after` destinations and something else for every other one. It stands
// for what a fork verification exists to catch: a replay from a snapshot
// that does not retrace the golden mainline. Before the first fork point
// the mainline is the only network there is, so the generators that draw
// the first `after` destinations are the mainline's own, whichever
// network draws after that and however the pipeline's goroutines
// interleave; every clone has generators of its own.
type driftPattern struct {
	traffic.Uniform
	after int64
	mu    sync.Mutex
	calls int64
	early map[*rng.PCG]bool
}

func (p *driftPattern) Dest(m topology.Mesh, src int, g *rng.PCG) int {
	d := p.Uniform.Dest(m, src, g)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls++; p.calls <= p.after {
		if p.early == nil {
			p.early = map[*rng.PCG]bool{}
		}
		p.early[g] = true
	}
	if !p.early[g] {
		for d = (d + 1) % m.Nodes(); d == src; d = (d + 1) % m.Nodes() {
		}
	}
	return d
}

// TestRunWaitsForItsPipeline fails a campaign while its golden mainline
// has twenty million cycles to go — on a run's fork verification, and on
// the template's inside the group builder — and requires Run to come back
// with that error and every goroutine it started gone. One snapshot, at
// the first injection cycle, makes the forks of the second replay a gap.
func TestRunWaitsForItsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const first = 150
	mesh := topology.NewMesh(4, 4)
	cfg := sim.Config{Router: router.Default(mesh), InjectionRate: 0.12, Seed: 3}
	// How many destinations the mainline draws before the first injection
	// cycle.
	count := &driftPattern{after: math.MaxInt64}
	cfg.Pattern = count
	n, err := sim.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(first)

	for _, tc := range []struct {
		name    string
		fullSim bool
	}{
		{"run error", true},               // no template: the first fork that replays is a run's
		{"template fork mismatch", false}, // the group builder's own fork fails the build
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := multiCycleOptions(mesh, 3, 7, []int64{first, first + 20, 20_000_000}, 200, 2500, 300)
			o.Sim.Pattern = &driftPattern{after: count.calls}
			o.SnapshotInterval = 1 << 30 // past the last injection cycle: one snapshot
			o.FullSim = tc.fullSim
			baseline := runtime.NumGoroutine()
			start := time.Now()
			_, err := Run(o)
			if err == nil || !strings.Contains(err.Error(), "diverged from the golden state") {
				t.Fatalf("Run returned %v, want the fork verification's error", err)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Errorf("Run returned %v after the failure: it waited for the mainline to finish", took)
			}
			// A goroutine that has closed its last channel may still be
			// on its way out.
			for i := 0; runtime.NumGoroutine() > baseline && i < 100; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > baseline {
				t.Errorf("%d goroutines after Run returned, %d before it was called", got, baseline)
			}
		})
	}
}

// TestLiveRateSkipsGroupWaits holds the live faults/sec gauge across the
// wait for a far injection cycle's group. Eight cycle-0 runs take some
// milliseconds; the one worker then stands blocked while the mainline
// steps 200 000 cycles. The gauge after the next run must be what the
// runs themselves account for — the rate after the last cycle-0 run,
// moved by one more run's own wall time — and not that diluted by the
// wait, from which every ETA downstream would inherit a collapse.
func TestLiveRateSkipsGroupWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const far = 200_000
	o := multiCycleOptions(topology.NewMesh(4, 4), 16, 7, []int64{0, far}, 200, 2500, 300)
	o.Metrics = metrics.NewRegistry()
	gauge := o.Metrics.Gauge(MetricFaultsPerSec)
	var before, after, nextWall float64
	nBefore := 0
	o.OnResult = func(i int, res *RunResult, wall time.Duration, _ ExitPath) {
		fps := gauge.Value()
		if _, ok := EstimateETA(1, fps); !ok {
			t.Errorf("after run %d the gauge reads %g, which no ETA can be derived from", i, fps)
		}
		switch {
		case res.Fault.Cycle == 0:
			before, nBefore = fps, nBefore+1
		case after == 0:
			after, nextWall = fps, wall.Seconds()
		}
	}
	mustRun(t, o)
	n := float64(nBefore)
	active := n / before
	waited := o.Metrics.Histogram(MetricGoldenGroupWait, runSecondsBounds).Sum()
	if waited < 2*active {
		t.Fatalf("the runs waited %.3f s for their groups and ran %.3f s before the far one: the warm-up was to dwarf them", waited, active)
	}
	if want := (n + 1) / (active + nextWall); after < 0.5*want {
		t.Errorf("%s fell from %.0f after the last cycle-0 run to %.0f after the first of cycle %d (one more run of %.4f s gives %.0f): the %.3f s wait for its group went into the rate",
			MetricFaultsPerSec, before, after, far, nextWall, want, waited)
	}
}

// deepHash folds everything reachable from v — unexported fields, slice
// contents, pointees — into one word, so that two calls agree only if
// nothing in between wrote to any of it.
func deepHash(h uint64, v reflect.Value, seen map[uintptr]bool) uint64 {
	switch v.Kind() {
	case reflect.Bool:
		return statehash.FoldBool(h, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return statehash.Fold(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return statehash.Fold(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return statehash.Fold(h, math.Float64bits(v.Float()))
	case reflect.String:
		for _, b := range []byte(v.String()) {
			h = statehash.Fold(h, uint64(b))
		}
		return statehash.FoldInt(h, v.Len())
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return statehash.FoldBool(h, v.IsNil())
		}
		seen[v.Pointer()] = true
		return deepHash(h, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return statehash.FoldBool(h, true)
		}
		return deepHash(h, v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h = deepHash(h, v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		h = statehash.FoldInt(h, v.Len())
		for i := 0; i < v.Len(); i++ {
			h = deepHash(h, v.Index(i), seen)
		}
	case reflect.Map:
		// Order-free: the sum of the entries' own hashes.
		var sum uint64
		for it := v.MapRange(); it.Next(); {
			sum += deepHash(deepHash(statehash.Seed, it.Key(), seen), it.Value(), seen)
		}
		return statehash.Fold(h, sum)
	}
	return h
}

// groupHash fingerprints a published group: its snapshot, its
// transcript, and everything else a run reads through it.
func groupHash(gc *groupCtx) uint64 {
	return deepHash(statehash.Seed, reflect.ValueOf(gc), map[uintptr]bool{})
}
