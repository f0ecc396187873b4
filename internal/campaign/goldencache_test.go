package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/routing"
	"nocalert/internal/trace"
	"nocalert/internal/traffic"
)

// cacheCounts reads the golden-cache outcome counters off a registry.
func cacheCounts(reg *metrics.Registry) (hits, misses int64) {
	return reg.Counter(MetricGoldenCacheHits).Value(), reg.Counter(MetricGoldenCacheMisses).Value()
}

func mustRun(t *testing.T, o Options) *Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenCacheShardsMatchFixture runs the 64-fault 8×8 fixture
// campaign as four shards through one cache: the merged report must be
// the committed fixture byte for byte, only the first shard may build,
// and every shard must report the one artefact's footprint.
func TestGoldenCacheShardsMatchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := Spec{
		MeshW: 8, MeshH: 8, VCs: 4, InjectionRate: 0.05, Seed: 3,
		InjectCycle: 300, PostInjectRun: 500, DrainDeadline: 10000,
		Epoch: 1500, HopLatency: 1, NumFaults: 64,
	}
	fixture, err := os.ReadFile("../../testdata/report_8x8_seed3.json")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	cache := NewGoldenCache()
	reg := metrics.NewRegistry()
	var recs []trace.RunRecord
	var first *Report
	for i := 0; i < shards; i++ {
		sh, err := PlanShard(spec, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.Options()
		opts.Faults = sh.Faults
		opts.GoldenCache = cache
		opts.Metrics = reg
		rep := mustRun(t, opts)
		for _, rec := range rep.Results {
			rec.Index += sh.Start
			recs = append(recs, rec)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.SnapshotBytes != first.SnapshotBytes || rep.TimelineBytes != first.TimelineBytes {
			t.Errorf("shard %d reports footprint %d/%d, the building shard %d/%d", i,
				rep.SnapshotBytes, rep.TimelineBytes, first.SnapshotBytes, first.TimelineBytes)
		}
	}
	if hits, misses := cacheCounts(reg); hits != shards-1 || misses != 1 {
		t.Errorf("cache outcomes hits=%d misses=%d, want %d/1", hits, misses, shards-1)
	}
	// One artefact: what the report carries of it plus its golden logs.
	if got, floor := int64(reg.Gauge(MetricGoldenCacheBytes).Value()), first.SnapshotBytes+first.TimelineBytes; got != cache.size() || got <= floor || got > 2*floor {
		t.Errorf("%s = %d, the cache holds %d, the one artefact reports %d", MetricGoldenCacheBytes, got, cache.size(), floor)
	}
	if got := int64(reg.Gauge(MetricSnapshotBytes).Value()); got != first.SnapshotBytes {
		t.Errorf("%s = %d after a hit, want %d", MetricSnapshotBytes, got, first.SnapshotBytes)
	}
	merged, err := ReportFromRecords(spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, merged), fixture) {
		t.Error("four shards off one golden artefact do not merge to testdata/report_8x8_seed3.json")
	}
}

// TestGoldenCacheOverlappingRuns submits one campaign twice at once on a
// cold cache: neither finds a finished artefact, so each builds its own —
// two misses — and the reports are identical; the cache keeps one of the
// two, charged once. Two more at once on the warm cache both hit.
func TestGoldenCacheOverlappingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cache := NewGoldenCache()
	o := obsOpts(24)
	o.Workers, o.GoldenCache = 1, cache
	// pair runs two copies of o at once. Each Run's first verdict waits
	// for the other's, so both have looked the key up before either
	// build can have finished.
	pair := func() (reg *metrics.Registry, reps [2][]byte) {
		reg = metrics.NewRegistry()
		var runs [2]*Report
		var errs [2]error
		var both, wg sync.WaitGroup
		both.Add(2)
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A Run that fails before its first verdict must not
				// leave the other waiting.
				arrive := sync.OnceFunc(both.Done)
				defer arrive()
				o := o
				o.Metrics = reg
				o.Progress = func(done, _ int) {
					if done == 1 {
						arrive()
						both.Wait()
					}
				}
				runs[i], errs[i] = Run(o)
			}()
		}
		wg.Wait()
		for i := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			reps[i] = reportBytes(t, runs[i])
		}
		if !bytes.Equal(reps[0], reps[1]) {
			t.Error("two overlapping campaigns of one key report differently")
		}
		return reg, reps
	}

	reg, cold := pair()
	if hits, misses := cacheCounts(reg); hits != 0 || misses != 2 {
		t.Errorf("cold cache: hits=%d misses=%d, want two builds", hits, misses)
	}
	if e := artefactOf(t, cache, o); len(cache.entries) != 1 || e == nil || cache.size() != e.g.footprint() {
		t.Errorf("cache holds %d entries and %d bytes, want the one artefact charged once", len(cache.entries), cache.size())
	}
	reg, warm := pair()
	if hits, misses := cacheCounts(reg); hits != 2 || misses != 0 {
		t.Errorf("warm cache: hits=%d misses=%d, want two hits", hits, misses)
	}
	if !bytes.Equal(cold[0], warm[0]) {
		t.Error("campaigns off the cached artefact report differently from the ones that built it")
	}
}

// TestGoldenKeyCoversOptions classifies every field of Options and of the
// Exec it embeds: changing one the golden artefact depends on must change
// the key, changing any other must not. A field this table does not name
// fails the test, so a new option cannot silently make two different
// artefacts share a key. Of Exec's fields only FullSim changes it.
func TestGoldenKeyCoversOptions(t *testing.T) {
	base := func() Options {
		o := obsOpts(8)
		o.Workers = 1
		return o
	}
	keyOf := func(o Options) goldenKey {
		t.Helper()
		d, err := o.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		_, key := d.goldenInputs()
		return key
	}
	regroup := func(o *Options) {
		o.FaultGroups = make([][]fault.Fault, len(o.Faults))
		for i, f := range o.Faults {
			o.FaultGroups[i] = []fault.Fault{f}
		}
	}
	type flip struct {
		what    string
		mutate  func(o *Options)
		changes bool
	}
	flips := map[string][]flip{
		"Sim": {
			{"seed", func(o *Options) { o.Sim.Seed++ }, true},
			{"injection rate", func(o *Options) { o.Sim.InjectionRate = 0.05 }, true},
			{"sweep engine", func(o *Options) { o.Sim.DisableSoA = true }, true},
			{"traffic pattern", func(o *Options) { o.Sim.Pattern = traffic.Transpose{} }, true},
			{"class weights", func(o *Options) { o.Sim.ClassWeights = []float64{1} }, true},
			{"VC count", func(o *Options) { o.Sim.Router.VCs = 2 }, true},
			{"routing algorithm", func(o *Options) { o.Sim.Router.Alg = routing.WestFirst{} }, true},
		},
		"InjectCycle":   {{"report header only", func(o *Options) { o.InjectCycle++ }, false}},
		"PostInjectRun": {{"", func(o *Options) { o.PostInjectRun++ }, true}},
		"DrainDeadline": {{"", func(o *Options) { o.DrainDeadline++ }, true}},
		"Forever":       {{"epoch", func(o *Options) { o.Forever.Epoch++ }, true}},
		"Faults": {
			{"other faults, same cycle set", func(o *Options) { o.Faults = o.Faults[:len(o.Faults)/2] }, false},
			{"a second injection cycle", func(o *Options) { o.Faults[0].Cycle = 100 }, true},
		},
		"FaultGroups": {
			{"grouped, same cycle set", regroup, false},
			{"a second injection cycle", func(o *Options) { regroup(o); o.FaultGroups[0][0].Cycle = 100 }, true},
		},
		"Workers":          {{"", func(o *Options) { o.Workers = 7 }, false}},
		"CheckersDisabled": {{"", func(o *Options) { o.CheckersDisabled = []core.CheckerID{1} }, true}},
		"FullSim":          {{"", func(o *Options) { o.FullSim = true }, true}},
		"GoldenCache":      {{"", func(o *Options) { o.GoldenCache = NewGoldenCache() }, false}},
		"Progress":         {{"", func(o *Options) { o.Progress = func(int, int) {} }, false}},
		"Metrics":          {{"", func(o *Options) { o.Metrics = metrics.NewRegistry() }, false}},
		"OnResult":         {{"", func(o *Options) { o.OnResult = func(*trace.RunRecord, RunCounts, float64) {} }, false}},
		"Context":          {{"", func(o *Options) { o.Context = context.TODO() }, false}},
		"Tracer":           {{"", func(o *Options) { o.Tracer = obs.New(obs.Options{Retain: true}) }, false}},
		"TraceParent":      {{"", func(o *Options) { o.TraceParent = obs.New(obs.Options{Retain: true}).Start(nil, "job", "job") }, false}},
	}
	k0 := keyOf(base())
	if keyOf(base()) != k0 {
		t.Fatal("key is not a function of the options")
	}
	var fields []string // every field of Options, Exec's spelled out
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if !f.Anonymous {
			fields = append(fields, f.Name)
		}
	}
	for _, name := range fields {
		fl, ok := flips[name]
		if !ok {
			t.Errorf("Options.%s is not classified: say here whether the golden artefact depends on it, and hash it in goldenInputs if it does", name)
			continue
		}
		delete(flips, name)
		for _, f := range fl {
			o := base()
			f.mutate(&o)
			if changed := keyOf(o) != k0; changed != f.changes {
				t.Errorf("Options.%s (%s): key changed = %v, want %v", name, f.what, changed, f.changes)
			}
		}
	}
	for name := range flips {
		t.Errorf("the table names Options.%s, which no longer exists", name)
	}
}

// addrPattern is a traffic pattern used through a pointer, as a library
// caller's might be: %#v prints its address, not its field.
type addrPattern struct {
	traffic.Uniform
	skew int
}

// TestGoldenKeyRefusesPointers: a config that holds a pointer has no
// canonical text, so its artefact is built every time and never kept,
// whatever the pointee was mutated to in between.
func TestGoldenKeyRefusesPointers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	o := obsOpts(4)
	o.Workers = 1
	o.Sim.Pattern = &addrPattern{}
	o.GoldenCache = NewGoldenCache()
	o.Metrics = metrics.NewRegistry()
	d, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if _, key := d.goldenInputs(); key != "" {
		t.Fatalf("a pointer-typed pattern got the key %q, want none", key)
	}
	first := mustRun(t, o)
	o.Sim.Pattern.(*addrPattern).skew++
	second := mustRun(t, o)
	if hits, misses := cacheCounts(o.Metrics); hits != 0 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 0 and 2", hits, misses)
	}
	if n := o.GoldenCache.size(); n != 0 {
		t.Errorf("the cache kept %d bytes of an artefact it cannot name", n)
	}
	if !bytes.Equal(reportBytes(t, first), reportBytes(t, second)) {
		t.Error("the two uncached campaigns disagree")
	}
}

// TestGoldenArtefactReadOnly holds the artefact to its publication
// contract over three injection cycles. The first campaign builds it and
// fingerprints each group when the first run of its cycle is back —
// cycle 0's while the mainline is still on its way to 16 000 and that
// group is being built; at the end of the campaign, and again after two
// more two-worker campaigns ran off the finished artefact at once (the
// race detector watches the shared golden logs, monitors, snapshots and
// transcripts), every group must still hash the same. Then the first
// campaign is repeated: an artefact nobody writes gives the same report
// again. Every third fault is permanent, so a good share of the runs
// never reconverge and read the transcript's drain half and the cycles
// past its end.
func TestGoldenArtefactReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cache := NewGoldenCache()
	cycles := []int64{0, 16000, 32000}
	all := obsOpts(48)
	for i := range all.Faults {
		if i%3 == 0 {
			all.Faults[i].Type = fault.Permanent
		}
		all.Faults[i].Cycle = cycles[i/3%len(cycles)]
	}
	slice := func(lo, hi int) Options {
		o := all
		o.Faults = all.Faults[lo:hi]
		o.Workers = 2
		o.GoldenCache = cache
		return o
	}

	builder := slice(0, 24)
	// The building campaign's runs read its groups as they are published;
	// the cache has the artefact only once it is whole.
	var mu sync.Mutex
	published := map[int64]*groupCtx{}
	beforeRun = func(_ *worker, gc *groupCtx) {
		mu.Lock()
		defer mu.Unlock()
		published[gc.cycle] = gc
	}
	t.Cleanup(func() { beforeRun = nil })
	atPublication := map[int64]uint64{}
	inFlightAtFirst := false
	builder.OnResult = func(rec *trace.RunRecord, _ RunCounts, _ float64) {
		c := rec.Cycle
		if _, done := atPublication[c]; done {
			return
		}
		if len(atPublication) == 0 {
			inFlightAtFirst = artefactOf(t, cache, builder) == nil
		}
		mu.Lock()
		gc := published[c]
		mu.Unlock()
		atPublication[c] = groupHash(gc)
	}
	first := reportBytes(t, mustRun(t, builder))
	beforeRun = nil
	if !inFlightAtFirst {
		t.Error("the artefact was finished when the first run came back: nothing ran while a later group was being built")
	}
	stillAsPublished := func(when string) {
		t.Helper()
		gold := artefactOf(t, cache, builder).g
		for _, c := range cycles {
			if got := groupHash(gold.groups[c].gc); got != atPublication[c] {
				t.Errorf("%s the group of injection cycle %d hashes %x, at its publication %x: a published group was written to", when, c, got, atPublication[c])
			}
		}
	}
	stillAsPublished("at the end of the building campaign")

	var wg sync.WaitGroup
	for _, o := range []Options{slice(0, 24), slice(24, 48)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	stillAsPublished("after two more campaigns")
	if !bytes.Equal(first, reportBytes(t, mustRun(t, slice(0, 24)))) {
		t.Error("the artefact's first campaign reports differently after two more campaigns ran off it")
	}
	uncached := slice(0, 24)
	uncached.GoldenCache = nil
	if !bytes.Equal(first, reportBytes(t, mustRun(t, uncached))) {
		t.Error("cached and uncached reports differ")
	}
}

// TestGoldenCacheEviction gives the cache room for one artefact and
// alternates two campaigns: every Run rebuilds, the retained bytes never
// pass the budget, and an immediate repeat still hits.
func TestGoldenCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	a, b := obsOpts(4), obsOpts(4)
	b.Sim.Seed++
	cache := NewGoldenCache()
	cache.budget = 0
	for _, o := range []Options{a, b} {
		probe := NewGoldenCache()
		o.GoldenCache = probe
		mustRun(t, o)
		cache.budget = max(cache.budget, probe.size())
	}
	reg := metrics.NewRegistry()
	for i, o := range []Options{a, b, a, b, b} {
		o.Workers = 1
		o.GoldenCache = cache
		o.Metrics = reg
		mustRun(t, o)
		if got := cache.size(); got > cache.budget || got == 0 {
			t.Errorf("after campaign %d the cache retains %d bytes, budget %d", i, got, cache.budget)
		}
	}
	if hits, misses := cacheCounts(reg); misses != 4 || hits != 1 {
		t.Errorf("alternating two keys in a one-artefact cache, then repeating one: hits=%d misses=%d, want 1 and 4", hits, misses)
	}
	if len(cache.entries) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(cache.entries))
	}
	// The new families must be a valid exposition (what omlint checks).
	var om bytes.Buffer
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ValidateOpenMetrics(bytes.NewReader(om.Bytes())); err != nil {
		t.Errorf("campaign registry is not valid OpenMetrics: %v", err)
	}
	for _, name := range []string{MetricGoldenCacheHits, MetricGoldenCacheMisses, MetricGoldenCacheBytes} {
		if !bytes.Contains(om.Bytes(), []byte(name)) {
			t.Errorf("exposition lacks %s", name)
		}
	}
}

// TestGoldenCacheCancelledBuilder cancels a campaign on its first
// verdict, while its warm-up is on its way to the later injection cycles:
// the build caches nothing, and the next campaign of the key misses,
// builds the artefact itself and reports exactly the committed bytes.
func TestGoldenCacheCancelledBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	want, err := os.ReadFile(multicycleReportPath)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	base := multicycleOptions()
	base.Workers, base.GoldenCache = 1, cache

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builder := base
	builder.Context = ctx
	builder.Progress = func(done, _ int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := Run(builder); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want the context's error", err)
	}
	if len(cache.entries) != 0 || cache.size() != 0 {
		t.Fatalf("the cancelled build left %d entries and %d bytes in the cache", len(cache.entries), cache.size())
	}

	next := base
	next.Metrics = metrics.NewRegistry()
	if !bytes.Equal(reportBytes(t, mustRun(t, next)), want) {
		t.Errorf("the campaign after the cancelled one reports differently from %s", multicycleReportPath)
	}
	if hits, misses := cacheCounts(next.Metrics); hits != 0 || misses != 1 {
		t.Errorf("cache outcomes hits=%d misses=%d, want the campaign's own build", hits, misses)
	}
	if e := artefactOf(t, cache, next); len(cache.entries) != 1 || e == nil || cache.size() != e.g.footprint() {
		t.Errorf("cache does not hold exactly the second campaign's artefact: %d entries, %d bytes", len(cache.entries), cache.size())
	}
}

// TestRunRefusesForeignArtefact plants an artefact under a key it was
// not built for: Run must fail rather than judge faults against the
// wrong golden reference.
func TestRunRefusesForeignArtefact(t *testing.T) {
	a, b := obsOpts(2), obsOpts(2)
	b.Sim.Seed++
	cache := NewGoldenCache()
	a.GoldenCache, b.GoldenCache = cache, cache
	mustRun(t, a)
	db, err := b.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	_, keyB := db.goldenInputs()
	for _, e := range cache.entries {
		cache.entries[keyB] = e
	}
	if _, err := Run(b); err == nil || !strings.Contains(err.Error(), "golden artefact") {
		t.Errorf("Run accepted an artefact built for another key (err = %v)", err)
	}
}

// TestWarmupHonoursContext cancels a campaign 50 ms into a golden
// warm-up that would step two million cycles: Run must come back with
// the context's error promptly, its spans closed.
func TestWarmupHonoursContext(t *testing.T) {
	o := obsOpts(2)
	for i := range o.Faults {
		o.Faults[i].Cycle = 2_000_000
	}
	var stream bytes.Buffer
	tr := obs.New(obs.Options{Writer: &stream})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	o.Context, o.Tracer = ctx, tr
	start := time.Now()
	_, err := Run(o)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Run returned %v after a 50 ms cancellation", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want the context's error", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		t.Fatal(err)
	}
	closed := map[string]bool{}
	for _, s := range spans {
		closed[s.Name] = true
	}
	if !closed["golden-warmup"] || !closed["campaign"] {
		t.Errorf("spans closed on the cancelled warm-up: %v", closed)
	}
}
