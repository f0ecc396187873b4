package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/obs"
	"nocalert/internal/sim"
)

// Golden is the fault-free half of a campaign: everything the golden
// warm-up produces and every faulty run only reads — one groupCtx per
// distinct injection cycle, holding the snapshot its runs fork from, and
// the footprint totals the report carries. It depends on the campaign's
// options and injection-cycle set but on no individual fault, so shards
// and jobs of one campaign share a single artefact.
//
// The artefact is published group by group, in injection-cycle order,
// while the warm-up that builds it (startGolden) is still stepping
// towards the later cycles. The contract every reader relies on:
//
//   - A published group is immutable, and shares no memory the warm-up
//     still writes. Its publication (the close of its ready channel)
//     happens before any read of it, so workers of any number of
//     concurrent Runs read it without further synchronization.
//   - The byte totals, endCycle and the step counts belong to the
//     warm-up until done is closed; they are final, and err says how the
//     build ended, from then on.
//   - A build that fails — its builder cancelled, say — leaves the
//     groups it has published valid; the others resolve to
//     errGoldenAbandoned, and by then the artefact has left its cache.
type Golden struct {
	// key names the inputs the artefact was built from; Run refuses an
	// artefact whose key is not the one it asked for.
	key goldenKey
	// cache is where the artefact is kept once built, nil when nowhere.
	cache  *GoldenCache
	groups map[int64]*goldenGroup // one per injection cycle, fixed from the start
	done   chan struct{}
	err    error
	// snapshotBytes is the estimated footprint of the snapshots, one per
	// injection cycle (sim.Network.ApproxFootprintBytes).
	snapshotBytes int64
	// timelineBytes is the estimated footprint of the per-run records
	// (signal transcripts through the golden drain, counter timelines,
	// the ForEVeR monitors' per-node records).
	timelineBytes int64
	// logBytes is the estimated footprint of the golden reference logs,
	// which no report field carries.
	logBytes int64
	// endCycle is where the golden mainline stopped: the last injection
	// cycle plus the final continuation. routerSteps and niTicks are what
	// stepping it there evaluated (sim.Network.RouterSteps, NITicks) and
	// routersFolded and vcTermsFolded what folding it on the way took again
	// (FoldCounts), which BenchmarkGoldenWarmup reports per cycle.
	endCycle                     int64
	routerSteps, niTicks         int64
	routersFolded, vcTermsFolded int64
}

// goldenGroup is one injection cycle's slot in the artefact: gc is set,
// if ever, before ready is closed.
type goldenGroup struct {
	ready chan struct{}
	gc    *groupCtx
}

// errGoldenAbandoned is what a group resolves to when the build ended
// before publishing it. Golden.err has the reason, which is the
// builder's to report: a Run reading another Run's artefact takes or
// builds a new one instead (goldenHold.group).
var errGoldenAbandoned = errors.New("campaign: golden build abandoned before this injection cycle was published")

func newGolden(key goldenKey, cycles []int64, cache *GoldenCache) *Golden {
	g := &Golden{key: key, cache: cache, groups: make(map[int64]*goldenGroup, len(cycles)),
		done: make(chan struct{})}
	for _, c := range cycles {
		g.groups[c] = &goldenGroup{ready: make(chan struct{})}
	}
	return g
}

// group returns the context of injection cycle c, waiting for the
// warm-up to publish it when it has not yet. waited is how long that
// took, exactly zero for a group that was already there. Every reader —
// the builder's runs, a concurrent Run's, those of a Run that found the
// artefact finished in the cache — comes through here.
func (g *Golden) group(ctx context.Context, c int64) (gc *groupCtx, waited time.Duration, err error) {
	s := g.groups[c]
	select {
	case <-s.ready:
	default:
		start := time.Now()
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, time.Since(start), ctx.Err()
		}
		waited = time.Since(start)
	}
	if s.gc == nil {
		return nil, waited, errGoldenAbandoned
	}
	return s.gc, waited, nil
}

// complete reports whether the build has ended with every group
// published: the totals are final and can be read.
func (g *Golden) complete() bool {
	select {
	case <-g.done:
		return g.err == nil
	default:
		return false
	}
}

// footprint is what the artefact charges against a cache's budget: the
// snapshots, the per-window records and the golden reference logs.
// The ForEVeR monitor and result template of each injection cycle (a
// few words per node) are not counted. Final once the build is.
func (g *Golden) footprint() int64 { return g.snapshotBytes + g.timelineBytes + g.logBytes }

// stamp writes the finished artefact's totals on a golden-warmup span.
func (g *Golden) stamp(warm *obs.Span) {
	warm.SetAttr("snapshots", len(g.groups))
	warm.SetAttr("snapshot_bytes", g.snapshotBytes)
	warm.SetAttr("golden_cycle", g.endCycle)
}

// goldenKey is the SHA-256 of the canonical text of every input a
// Golden depends on (see Options.goldenInputs). The empty key names
// inputs that have no canonical text: their artefact is built and never
// shared.
type goldenKey string

// valueOnly reports whether %#v of v is a function of v's value alone:
// it reaches no non-nil pointer, func, channel or unsafe pointer, which
// %#v prints as an address. An address would keep its text while the
// pointee is mutated (a stale hit) and differ between equal values.
func valueOnly(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return v.IsNil()
	case reflect.Interface:
		return v.IsNil() || valueOnly(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !valueOnly(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !valueOnly(v.Index(i)) {
				return false
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if !valueOnly(it.Key()) || !valueOnly(it.Value()) {
				return false
			}
		}
	}
	return true
}

// distinctCycles returns the injection cycles of the fault groups,
// ascending. Each group carries its own cycle (withDefaults enforced
// homogeneity within a group).
func distinctCycles(groups [][]fault.Fault) []int64 {
	var cycles []int64
	seen := make(map[int64]bool)
	for _, g := range groups {
		if !seen[g[0].Cycle] {
			seen[g[0].Cycle] = true
			cycles = append(cycles, g[0].Cycle)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	return cycles
}

// goldenInputs resolves what the golden artefact is a function of: the
// distinct injection cycles and the key naming them together with every
// option the warm-up reads. The fault list enters only through the cycle
// set; Workers, the hooks and the context never do. %#v spells Sim and
// Forever out field by field with the dynamic types of the routing
// algorithm and traffic pattern, so a value field added to either config
// changes the key without an edit here. That holds for configs made of
// values, as every in-tree routing algorithm and traffic pattern is; one
// that holds a pointer (a caller's pointer-typed Pattern, say) gets the
// empty key, which no cache keeps. o must have been through withDefaults.
func (o *Options) goldenInputs() (cycles []int64, key goldenKey) {
	cycles = distinctCycles(o.FaultGroups)
	if !valueOnly(reflect.ValueOf(o.Sim)) || !valueOnly(reflect.ValueOf(o.Forever)) {
		return cycles, ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "sim=%#v\nforever=%#v\npost=%d drain=%d checkers=%v\n",
		o.Sim, o.Forever, o.PostInjectRun, o.DrainDeadline, o.CheckersDisabled)
	fmt.Fprintf(h, "fullsim=%t\n", o.FullSim)
	fmt.Fprintf(h, "cycles=%v\n", cycles)
	return cycles, goldenKey(hex.EncodeToString(h.Sum(nil)))
}

// forkPoint is what the golden mainline hands the group builder at an
// injection cycle: the snapshot runs of that cycle fork from, the
// mainline's fingerprint there (the template's fork is verified against
// it) and the network that continues fault-free from it — a clone, or
// for the last cycle the mainline itself.
type forkPoint struct {
	cycle  int64
	snap   *sim.Network
	forkFP uint64
	cont   *sim.Network
}

// startGolden launches the golden warm-up and returns the artefact it
// publishes into. The warm-up is a pipeline of two goroutines. The
// mainline steps one fault-free network from cycle 0 to the last
// injection cycle, and at every injection cycle captures a snapshot and
// hands a forkPoint over; the group builder turns
// each into that cycle's groupCtx (buildGroupCtx) and publishes it, so
// runs of an early cycle execute while the mainline is on its way to the
// later ones. The hand-off is unbuffered: at most one continuation waits
// while one is being built, however many injection cycles there are.
//
// The pipeline honours ctx between mainline cycles and between group
// contexts; it has exited when g.done is closed, which whoever called
// startGolden waits for. warm, the golden-warmup span (nil when tracing
// is off), is the pipeline's from here on: it gets a mainline child per
// stretch and a group child per injection cycle, and is ended with the
// build.
func startGolden(ctx context.Context, o *Options, cycles []int64, key goldenKey, cache *GoldenCache, warm *obs.Span) *Golden {
	g := newGolden(key, cycles, cache)
	ctx, cancel := context.WithCancel(ctx)
	forks := make(chan forkPoint)
	var mainErr error
	go func() {
		defer close(forks)
		mainErr = g.runMainline(ctx, o, cycles, forks, warm)
	}()
	go func() {
		err := g.buildGroups(ctx, o, forks, warm)
		// Stop a mainline that is still stepping and let it go: it is
		// blocked on nothing but this receive or ctx.
		cancel()
		for range forks {
		}
		if err == nil {
			err = mainErr
		}
		g.finish(err, warm)
	}()
	return g
}

// ctxCheckCycles is how many mainline cycles the warm-up steps between
// looks at the context: a cancel lands within a few hundred cycles
// without the check showing up in the step loop.
const ctxCheckCycles = 256

// runMainline is the first pipeline stage. Each mainline span covers
// everything done for one stretch: the steps to the injection cycle, the
// snapshot there, the fork point and its hand-off.
func (g *Golden) runMainline(ctx context.Context, o *Options, cycles []int64, forks chan<- forkPoint, warm *obs.Span) error {
	mainline, err := sim.New(o.Sim, nil)
	if err != nil {
		return err
	}
	mainline.AttachMonitor(forever.NewMonitor(mainline.RouterConfig(), o.Forever))
	stretch := func(ci int, c int64) error {
		ml := warm.Child("phase", "mainline")
		defer ml.End()
		ml.SetAttr("from_cycle", mainline.Cycle())
		ml.SetAttr("to_cycle", c)
		for mainline.Cycle() < c {
			if mainline.Cycle()%ctxCheckCycles == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			mainline.Step()
			// Nothing reads a mainline ejection: a continuation's golden
			// log starts at its injection cycle and snapshots carry no log.
			// Dropped as they come, they are not copied into every
			// continuation either, nor pin 32 000 cycles of delivered flits.
			mainline.ResetEjections()
		}
		// The snapshot is its own allocation, never written after capture:
		// groups published from it are read while the mainline moves on.
		snap := mainline.CloneInto(nil, nil)
		g.snapshotBytes += snap.ApproxFootprintBytes()
		fp := forkPoint{cycle: c, snap: snap, forkFP: mainline.Fingerprint(), cont: mainline}
		if ci < len(cycles)-1 {
			fp.cont = mainline.Clone(nil)
		}
		select {
		case forks <- fp:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for ci, c := range cycles {
		if err := stretch(ci, c); err != nil {
			return err
		}
	}
	return nil
}

// buildGroups is the second pipeline stage: one groupCtx per fork point,
// published as soon as it is whole. It owns the scratch worker the
// templates' forks run in and the footprint totals.
func (g *Golden) buildGroups(ctx context.Context, o *Options, forks <-chan forkPoint, warm *obs.Span) error {
	var tw worker
	began, first := time.Now(), true
	for fp := range forks {
		if err := ctx.Err(); err != nil {
			return err
		}
		gs := warm.Child("phase", "group")
		gs.SetAttr("inject_cycle", fp.cycle)
		gc, err := buildGroupCtx(&tw, *o, fp, gs)
		gs.End()
		if err != nil {
			return err
		}
		g.logBytes += gc.goldenLog.ApproxFootprintBytes()
		g.timelineBytes += gc.rec.ApproxFootprintBytes() + gc.gfv.ApproxHistoryBytes()
		if gc.rc != nil {
			g.timelineBytes += gc.rc.tl.ApproxFootprintBytes()
		}
		// The last continuation is the mainline.
		g.endCycle, g.routerSteps, g.niTicks = fp.cont.Cycle(), fp.cont.RouterSteps(), fp.cont.NITicks()
		g.routersFolded, g.vcTermsFolded = fp.cont.FoldCounts()
		s := g.groups[fp.cycle]
		s.gc = gc
		close(s.ready)
		if first {
			warm.SetAttr("first_group_ms", msSince(began))
			first = false
		}
	}
	return nil
}

// finish ends the build: it settles the artefact with its cache — kept
// and charged, or dropped when err is not nil — before anybody can learn
// from a group or from done how the build ended, so that a reader sent
// away by errGoldenAbandoned finds the cache ready for the next build.
func (g *Golden) finish(err error, warm *obs.Span) {
	g.err = err
	g.cache.settle(g)
	if err == nil {
		g.stamp(warm)
	} else {
		warm.SetAttr("error", err.Error())
	}
	warm.End()
	for _, s := range g.groups {
		if s.gc == nil {
			close(s.ready)
		}
	}
	close(g.done)
}

// msSince is the time since t in milliseconds, as span attributes carry
// wall times.
func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// goldenCacheBudget caps the estimated bytes (Golden.footprint:
// snapshots, per-window records, golden logs) a GoldenCache retains. A
// paper-scale 8×8 artefact is about 3 MB per injection cycle and a
// 16×16 one about 10 MB, so the budget holds the artefacts of a few
// dozen recent campaigns; past it the least recently used go, and an
// artefact larger than the whole budget is handed to its campaign
// without being kept.
const goldenCacheBudget = 256 << 20

// How Run's golden artefact was obtained: the value of the golden-warmup
// span's "cache" attribute and the suffix of the cache counters.
const (
	cacheMiss = "miss" // built by this Run (always, without a cache)
	cacheHit  = "hit"  // found built
	cacheWait = "wait" // found being built by a concurrent Run
)

// GoldenCache keeps golden artefacts between campaigns so the shards and
// jobs of one campaign that one process executes — a nocalertd worker
// running several shards of a dispatch, a resumed job — build the golden
// reference once. Entries are keyed by every input the artefact depends
// on, bounded in bytes with least-recently-used eviction, and built at
// most once at a time per key: a Run that finds its key being built
// reads the groups of that build as they are published. The zero value
// is not usable; a nil *GoldenCache is, and caches nothing. Safe for
// concurrent use.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	bytes   int64 // footprint of the built entries
	budget  int64
	clock   uint64 // last-use stamp source
}

// goldenEntry is one key's slot: in flight until its artefact's build
// ends, then built (charged against the budget) or gone.
type goldenEntry struct {
	g     *Golden
	built bool
	used  uint64
}

// NewGoldenCache returns an empty cache with the default byte budget.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{entries: make(map[goldenKey]*goldenEntry), budget: goldenCacheBudget}
}

// size returns the estimated bytes the cache retains.
func (c *GoldenCache) size() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// get returns the artefact for key and says which of the three ways the
// caller came by it. One the cache holds built is a hit; one in flight
// is a wait, handed out at once: the caller reads its groups as another
// Run's warm-up publishes them. When the cache holds none (or the key is
// empty: nothing to find it under) start launches the build — it is
// given the cache the artefact is to settle with — and the caller is its
// builder: a miss.
func (c *GoldenCache) get(key goldenKey, start func(*GoldenCache) *Golden) (*Golden, string) {
	if c == nil || key == "" {
		return start(nil), cacheMiss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		if !e.built {
			return e.g, cacheWait
		}
		c.clock++
		e.used = c.clock
		return e.g, cacheHit
	}
	// Under the lock, so the entry is in place before the build can end
	// and settle.
	e := &goldenEntry{g: start(c)}
	c.entries[key] = e
	return e.g, cacheMiss
}

// settle closes the books on g's build, which has just ended: a whole
// artefact is charged against the budget, a failed one is not cached —
// its entry is dropped, and the next get of the key builds.
func (c *GoldenCache) settle(g *Golden) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if g.err != nil {
		delete(c.entries, g.key)
		return
	}
	e := c.entries[g.key]
	c.clock++
	e.built, e.used = true, c.clock
	c.bytes += g.footprint()
	c.evict()
}

// evict drops least-recently-used built entries until the cache fits its
// budget. Campaigns still running off an evicted artefact keep their own
// reference. Caller holds mu.
func (c *GoldenCache) evict() {
	for c.bytes > c.budget {
		var oldest goldenKey
		var oe *goldenEntry
		for k, e := range c.entries {
			if e.built && (oe == nil || e.used < oe.used) {
				oldest, oe = k, e
			}
		}
		if oe == nil {
			return
		}
		delete(c.entries, oldest)
		c.bytes -= oe.g.footprint()
	}
}

// goldenHold is one Run's hold on the golden artefact its runs read:
// which artefact that is at the moment, how the Run came by it, and the
// Run's golden-warmup span until somebody ends it.
type goldenHold struct {
	ctx    context.Context // the Run's, done when the Run is over
	o      *Options
	cycles []int64
	key    goldenKey
	warm   *obs.Span

	mu  sync.Mutex
	g   *Golden // what the runs read now
	how string
	// built is the artefact this Run's own pipeline builds, nil while it
	// builds none. The pipeline ends warm then; otherwise the Run does,
	// once, and warmOpen says whether it still has to.
	built    *Golden
	warmOpen bool
}

// attach takes the artefact of the hold's key from the cache, or starts
// building it. Caller holds mu (or is alone).
func (h *goldenHold) attach() error {
	g, how := h.o.GoldenCache.get(h.key, func(c *GoldenCache) *Golden {
		h.warm.SetAttr("cache", cacheMiss)
		h.warmOpen = false
		h.built = startGolden(h.ctx, h.o, h.cycles, h.key, c, h.warm)
		return h.built
	})
	if g.key != h.key {
		return fmt.Errorf("campaign: golden artefact was built for key %.12s, this campaign needs %.12s", g.key, h.key)
	}
	h.g, h.how = g, how
	if h.how != cacheMiss {
		h.warm.SetAttr("cache", h.how)
		if h.g.complete() {
			h.endWarm()
		}
	}
	return nil
}

// endWarm ends a golden-warmup span the Run still has, stamped with the
// artefact's totals when they are final. Caller holds mu (or is alone).
func (h *goldenHold) endWarm() {
	if !h.warmOpen {
		return
	}
	h.warmOpen = false
	if h.g != nil && h.g.complete() {
		h.g.stamp(h.warm)
	}
	h.warm.End()
}

// group returns the golden context of injection cycle c for one run, and
// how long the run stood waiting for it. The build the hold reads from
// may die under it — its builder, another Run, cancelled or failed: the
// groups it published stay good, and for the rest the hold goes back to
// the cache, where the first Run to come builds. The failure of the
// Run's own build is the Run's error.
func (h *goldenHold) group(c int64) (*groupCtx, time.Duration, error) {
	var waited time.Duration
	for {
		h.mu.Lock()
		g := h.g
		h.mu.Unlock()
		gc, w, err := g.group(h.ctx, c)
		waited += w
		if err == nil {
			if h.warm != nil && c == h.cycles[len(h.cycles)-1] {
				// Groups come out in cycle order: with the last, somebody
				// else's build this Run was reading is over.
				h.mu.Lock()
				if h.warmOpen {
					<-g.done
					h.endWarm()
				}
				h.mu.Unlock()
			}
			return gc, waited, nil
		}
		if err != errGoldenAbandoned {
			return nil, waited, err
		}
		h.mu.Lock()
		switch {
		case g == h.built:
			err = g.err
		case g == h.g: // the first worker to notice moves the hold
			err = h.attach()
		default:
			err = nil
		}
		h.mu.Unlock()
		if err != nil {
			return nil, waited, err
		}
	}
}

// release is the end of the hold, after the Run's context is done: the
// pipeline the Run started, if it started one, has exited when it
// returns, and the golden-warmup span is closed.
func (h *goldenHold) release() {
	if h.built != nil {
		<-h.built.done
	}
	h.endWarm()
}
