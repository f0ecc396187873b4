package campaign

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/statehash"
	"nocalert/internal/topology"
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
// one, and on the reference sweep, the report is the committed one.
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
	// The reference (every node stepped, every port visited) reports the
	// same bytes.
	t.Run("reference", func(t *testing.T) {
		o := multicycleOptions()
		o.Sim.DisableSoA = true
		check(t, "reference", mustRun(t, o))
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
			hits, misses := cacheCounts(o.Metrics)
			wait := o.Metrics.Histogram(MetricGoldenGroupWait, groupWaitBounds)
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
}

// artefactOf returns the cache's entry for the campaign's key, nil while
// the cache holds no finished artefact of it.
func artefactOf(t *testing.T, cache *GoldenCache, o Options) *goldenEntry {
	t.Helper()
	d, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	_, key := d.goldenInputs()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return cache.entries[key]
}

// TestFirstVerdictBeforeLastGroup is the pipeline's point, on a traced
// campaign injecting at 0 and 16 000: the first run is over before the
// mainline has reached the second injection cycle, and its Progress call
// comes while the artefact is unfinished, and so not yet in the cache.
// Span order and cache state only, no clocks: the mainline has 16 000
// cycles to step while the first group and the first run take a few
// thousand.
func TestFirstVerdictBeforeLastGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	o := multiCycleOptions(topology.NewMesh(4, 4), 8, 7, []int64{0, 16000}, 200, 2500, 300)
	o.GoldenCache = NewGoldenCache()
	var atFirst *goldenEntry
	o.Progress = func(done, _ int) {
		if done == 1 {
			atFirst = artefactOf(t, o.GoldenCache, o)
		}
	}
	_, spans := tracedRun(t, o)
	if atFirst != nil {
		t.Error("at Progress(1, …) the cache holds the artefact: want it in flight")
	}
	if artefactOf(t, o.GoldenCache, o) == nil {
		t.Error("the finished artefact is not in the cache")
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

// TestRunWaitsForItsPipeline fails a campaign while its golden mainline
// has twenty million cycles to go — the group builder cannot drain the
// golden continuation of the second injection cycle by the deadline — and
// requires Run to come back promptly with that error and every goroutine
// it started gone. The offered load is past saturation, so the source
// queues grow with network age: the continuation of cycle 150 drains
// within the 1500-cycle deadline, the one of cycle 4000 does not (cycle
// 4000 + 200 of window + 1500).
func TestRunWaitsForItsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	t.Run("golden drain failure", func(t *testing.T) {
		o := multiCycleOptions(topology.NewMesh(4, 4), 3, 7, []int64{150, 4000, 20_000_000}, 200, 1500, 300)
		o.Sim.InjectionRate = 1.0
		baseline := runtime.NumGoroutine()
		start := time.Now()
		_, err := Run(o)
		if err == nil || !strings.Contains(err.Error(), "failed to drain by cycle 5700") {
			t.Fatalf("Run returned %v, want the drain failure of cycle 4000's golden continuation", err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("Run returned %v after the failure: it waited for the mainline to finish", took)
		}
		// A goroutine that has closed its last channel may still be on its
		// way out.
		for i := 0; runtime.NumGoroutine() > baseline && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Errorf("%d goroutines after Run returned, %d before it was called", got, baseline)
		}
	})
}

// TestLiveRateSkipsGroupWaits holds the live faults/sec RunShard reports
// (ShardRunStats.FaultsPerSec) across the wait for a far injection
// cycle's group. Eight cycle-0 runs take some milliseconds; the one
// worker then stands blocked while the mainline steps 200 000 cycles. The
// rate after the next run must be what the runs themselves account for —
// the rate after the last cycle-0 run, moved by one more run's own wall
// time — and not that diluted by the wait, from which every ETA
// downstream would inherit a collapse.
func TestLiveRateSkipsGroupWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	const far = 200_000
	spec := Spec{MeshW: 4, MeshH: 4, InjectionRate: 0.12, Seed: 7, InjectCycles: []int64{0, far},
		PostInjectRun: 200, DrainDeadline: 2500, Epoch: 300, HopLatency: 1, NumFaults: 16}
	spec.Normalize()
	sh, err := PlanShard(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	// One worker runs the faults in injection-cycle order: the universe
	// alternates its two cycles, so the eight of cycle 0 come first.
	var rates []float64
	recs, _, err := RunShard(sh, nil, nil, ShardRunOptions{Workers: 1, Metrics: reg,
		Progress: func(done, _ int, st ShardRunStats) {
			if _, ok := EstimateETA(1, st.FaultsPerSec); !ok {
				t.Errorf("after run %d the rate reads %g, which no ETA can be derived from", done, st.FaultsPerSec)
			}
			rates = append(rates, st.FaultsPerSec)
		}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	before, after := rates[n-1], rates[n]
	nextWall := recs[n].WallSeconds
	if recs[n-1].Cycle != 0 || recs[n].Cycle != far {
		t.Fatalf("runs %d and %d inject at cycles %d and %d, want 0 and %d", n-1, n, recs[n-1].Cycle, recs[n].Cycle, far)
	}
	active := n / before
	waited := reg.Histogram(MetricGoldenGroupWait, groupWaitBounds).Sum()
	if waited < 2*active {
		t.Fatalf("the runs waited %.3f s for their groups and ran %.3f s before the far one: the warm-up was to dwarf them", waited, active)
	}
	if want := (n + 1) / (active + nextWall); after < 0.5*want {
		t.Errorf("the rate fell from %.0f after the last cycle-0 run to %.0f after the first of cycle %d (one more run of %.4f s gives %.0f): the %.3f s wait for its group went into the rate",
			before, after, far, nextWall, want, waited)
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
