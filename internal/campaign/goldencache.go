package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"nocalert/internal/core"
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
// towards the later cycles; the Run that started the warm-up reads it as
// it comes, and a cache is offered it only once it is whole. The
// contract every reader relies on:
//
//   - A published group is immutable, and shares no memory the warm-up
//     still writes. Its publication (the close of its ready channel)
//     happens before any read of it, so workers of any number of Runs
//     read it without further synchronization.
//   - The byte totals, endCycle and the step counts belong to the
//     warm-up until done is closed; they are final, and err says how the
//     build ended, from then on.
//   - A build that fails — its Run cancelled, say — leaves the groups it
//     has published valid; the others resolve to err.
type Golden struct {
	// key names the inputs the artefact was built from; Run refuses an
	// artefact whose key is not the one it asked for.
	key goldenKey
	// cache is offered the artefact once it is built, nil when none is.
	cache  *GoldenCache
	groups map[int64]*goldenGroup // one per injection cycle, fixed from the start
	done   chan struct{}
	err    error
	// snapshotBytes is the estimated footprint of the snapshots, one per
	// injection cycle (sim.Network.ApproxFootprintBytes).
	snapshotBytes int64
	// timelineBytes is the estimated footprint of the per-run records
	// (signal transcripts through the golden drain, the ForEVeR monitors'
	// per-node records).
	timelineBytes int64
	// logBytes is the estimated footprint of the golden reference logs,
	// which no report field carries.
	logBytes int64
	// stepCounts totals what the warm-up's networks evaluated, which
	// BenchmarkGoldenWarmup reports per cycle.
	stepCounts
}

// goldenGroup is one injection cycle's slot in the artefact: gc is set,
// if ever, before ready is closed.
type goldenGroup struct {
	ready chan struct{}
	gc    *groupCtx
}

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
// the runs of the Run that builds the artefact, and those of a Run that
// found it in the cache — comes through here. A group the build ended without publishing
// resolves to the build's error.
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
		return nil, waited, g.err
	}
	return s.gc, waited, nil
}

// footprint is what the artefact charges against a cache's budget: the
// snapshots, the per-window records and the golden reference logs.
// The ForEVeR monitor of each injection cycle (a few words per node) is
// not counted. Final once the build is.
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
// set. Of Exec's knobs only FullSim enters, since it decides what the
// warm-up records; the others, and the hooks, never do. %#v spells Sim and
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

// stepCounts totals what stepping networks evaluated: endCycle is the
// furthest cycle one was stepped to (the mainline's, at the last
// injection cycle's horizon), routerSteps and niTicks are the router
// cycles and NI ticks they ran (sim.Network.RouterSteps, NITicks), and
// routersFolded and vcTermsFolded what folding them took again
// (FoldCounts).
type stepCounts struct {
	endCycle                     int64
	routerSteps, niTicks         int64
	routersFolded, vcTermsFolded int64
}

// add counts n, which nothing steps any more: every network is counted
// once, for what it stepped since it was built or cloned.
func (s *stepCounts) add(n *sim.Network) {
	folded, terms := n.FoldCounts()
	s.endCycle = max(s.endCycle, n.Cycle())
	s.routerSteps += n.RouterSteps()
	s.niTicks += n.NITicks()
	s.routersFolded += folded
	s.vcTermsFolded += terms
}

// forkPoint is what the golden mainline hands the group builder at an
// injection cycle: the snapshot runs of that cycle fork from, the
// mainline's fingerprint there (the builder's fork, which records the
// window, is verified against it) and, for a last cycle whose window is
// split, the split.
type forkPoint struct {
	cycle  int64
	snap   *sim.Network
	forkFP uint64
	split  *splitWindow
}

// splitFraction places the split cycle of a split window, that far into
// the post-injection window: where the builder's recorded first segment
// and the mainline's quiet run-ahead plus recorded rest balance.
const splitFraction = 0.6

// splitAt returns the cycle at which the window of post cycles after the
// last injection cycle c is split, strictly inside the window, or c for
// none: a window shorter than two cycles has no cycle inside it. A
// variable so that tests can put the seam anywhere; no result depends on
// where it is.
var splitAt = func(c, post int64) int64 {
	if post < 2 {
		return c
	}
	return c + min(max(int64(splitFraction*float64(post)), 1), post-1)
}

// splitWindow is the last injection cycle's window recorded in two
// segments, in time, on two cores: the builder records [cycle, at) on its
// fork of the snapshot while the mainline, which does not stop at the
// last fork point, steps quietly to at and records the rest — window,
// drain, settling, horizon — itself (recordWindow, recordTail). span
// carries the group span the mainline's phases go under, from the
// builder to the mainline, and tail the mainline's segment back; each
// holds one value, so neither side waits on a send.
type splitWindow struct {
	at   int64
	span chan *obs.Span
	tail chan windowTail
}

// windowTail is the mainline's segment of a split window: its
// fingerprint and ForEVeR state fold at the split cycle (the seam), the
// mainline itself, stepped to the horizon with its ejections since the
// split cycle, the engine it carried from there, and the transcript
// segment (unindexed; nil when it did not settle). err is set when the
// segment could not be recorded.
type windowTail struct {
	seamFP, seamFV uint64
	net            *sim.Network
	eng            *core.Engine
	rec            *sim.Recording
	err            error
}

// startGolden launches the golden warm-up and returns the artefact it
// publishes into. The warm-up is a pipeline of two goroutines. The
// mainline steps one fault-free network from cycle 0 to the last
// injection cycle, and at every injection cycle captures a snapshot and
// hands a forkPoint over; the group builder records each cycle's window
// on its verified fork of the snapshot, turns it into that cycle's
// groupCtx (buildGroupCtx) and publishes it, so runs of an early cycle
// execute while the mainline is on its way to the later ones. The
// hand-off is unbuffered: at most one snapshot waits while a window is
// being recorded, however many injection cycles there are. The last
// window, with nothing left for the mainline to step towards, is
// recorded by both (splitWindow), unless it is too short to split or the
// campaign runs under FullSim, which keeps the single chain.
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
	var (
		mainline *sim.Network
		mainErr  error
	)
	go func() {
		defer close(forks)
		mainline, mainErr = g.runMainline(ctx, o, cycles, forks, warm)
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
		if err == nil {
			g.stepCounts.add(mainline) // once, now that it has exited
		}
		g.finish(err, warm)
	}()
	return g
}

// ctxCheckCycles is how many mainline cycles the warm-up steps between
// looks at the context: a cancel lands within a few hundred cycles
// without the check showing up in the step loop.
const ctxCheckCycles = 256

// runMainline is the first pipeline stage; it returns the mainline once
// it is done with it. Each mainline span covers everything done for one
// stretch: the steps to the injection cycle, the snapshot there, the fork
// point and its hand-off; a split window's quiet run-ahead is one more.
func (g *Golden) runMainline(ctx context.Context, o *Options, cycles []int64, forks chan<- forkPoint, warm *obs.Span) (*sim.Network, error) {
	mainline, err := sim.New(o.Sim, nil)
	if err != nil {
		return nil, err
	}
	mainline.AttachMonitor(forever.NewMonitor(mainline.RouterConfig(), o.Forever))
	last := cycles[len(cycles)-1]
	var sw *splitWindow
	if at := splitAt(last, o.PostInjectRun); at > last && !o.FullSim {
		sw = &splitWindow{at: at, span: make(chan *obs.Span, 1), tail: make(chan windowTail, 1)}
	}
	stretch := func(c int64) error {
		ml := mainlineSpan(warm, mainline.Cycle(), c)
		defer ml.End()
		if err := advance(ctx, mainline, c); err != nil {
			return err
		}
		// The snapshot is its own allocation, never written after capture:
		// groups published from it are read while the mainline moves on.
		snap := mainline.CloneInto(nil, nil)
		g.snapshotBytes += snap.ApproxFootprintBytes()
		fp := forkPoint{cycle: c, snap: snap, forkFP: mainline.Fingerprint()}
		if c == last {
			fp.split = sw
		}
		select {
		case forks <- fp:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, c := range cycles {
		if err := stretch(c); err != nil {
			return nil, err
		}
	}
	if sw != nil {
		recordTail(ctx, *o, mainline, last, sw, warm)
	}
	return mainline, nil
}

// mainlineSpan opens a mainline span over cycles [from, to].
func mainlineSpan(warm *obs.Span, from, to int64) *obs.Span {
	ml := warm.Child("phase", "mainline")
	ml.SetAttr("from_cycle", from)
	ml.SetAttr("to_cycle", to)
	return ml
}

// advance steps the mainline to cycle to, looking at ctx every
// ctxCheckCycles cycles. Nothing reads a mainline ejection: a window's
// golden log starts at its injection cycle and snapshots carry no log.
// Dropped as they come, they do not pin 32 000 cycles of delivered flits.
func advance(ctx context.Context, mainline *sim.Network, to int64) error {
	for mainline.Cycle() < to {
		if mainline.Cycle()%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		mainline.Step()
		mainline.ResetEjections()
	}
	return nil
}

// recordTail is the mainline's part of a split window, once it has handed
// the last fork point (cycle c) over: it steps on quietly, ForEVeR only
// and no transcript, to the split cycle (a mainline span), notes the seam
// there, and records the second segment itself — transcript, NoCAlert
// engine, ForEVeR record, ejections — through the drain, the settling and
// the horizon, under the group span the builder sends it. The segment
// goes to the builder whatever happens, a failure included.
func recordTail(ctx context.Context, o Options, mainline *sim.Network, c int64, sw *splitWindow, warm *obs.Span) {
	tail := windowTail{net: mainline}
	defer func() { sw.tail <- tail }()
	ml := mainlineSpan(warm, c, sw.at)
	tail.err = advance(ctx, mainline, sw.at)
	ml.End()
	if tail.err != nil {
		return
	}
	tail.seamFP, tail.seamFV = mainline.Fingerprint(), findForever(mainline).StateFold()
	var gs *obs.Span
	select {
	case gs = <-sw.span:
	case <-ctx.Done():
		tail.err = ctx.Err()
		return
	}
	end := c + o.PostInjectRun
	win := windowSpan(gs, c, sw.at, end)
	tail.eng = startWindow(mainline, o, end-sw.at)
	mainline.Run(end - sw.at)
	win.End()
	tail.rec, tail.err = settleHorizon(mainline, o, c, gs, (*sim.Network).SettleSegment)
}

// buildGroups is the second pipeline stage: one groupCtx per fork point,
// published as soon as it is whole. It owns the worker whose network every
// window is recorded on, and the footprint totals.
func (g *Golden) buildGroups(ctx context.Context, o *Options, forks <-chan forkPoint, warm *obs.Span) error {
	var tw worker
	began, first := time.Now(), true
	for fp := range forks {
		if err := ctx.Err(); err != nil {
			return err
		}
		gs := warm.Child("phase", "group")
		gs.SetAttr("inject_cycle", fp.cycle)
		gc, err := buildGroupCtx(&tw, *o, fp, gs, &g.stepCounts)
		gs.End()
		if err != nil {
			return err
		}
		g.logBytes += gc.goldenLog.ApproxFootprintBytes()
		g.timelineBytes += gc.rec.ApproxFootprintBytes() + gc.gfv.ApproxHistoryBytes()
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

// finish ends the build: it offers a whole artefact to its cache (a
// failed one is not) before anybody can learn from a group or from done
// how the build ended, so that once its Run is over the next Run of the
// key finds it.
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
// paper-scale 8×8 artefact is about 2 MB per injection cycle and a
// 16×16 one about 6.5 MB, so the budget holds the artefacts of a few
// dozen recent campaigns; past it the least recently used go, and an
// artefact larger than the whole budget is handed to its campaign
// without being kept.
const goldenCacheBudget = 256 << 20

// How Run's golden artefact was obtained: the value of the golden-warmup
// span's "cache" attribute.
const (
	cacheMiss = "miss" // built by this Run (always, without a cache)
	cacheHit  = "hit"  // found built
)

// GoldenCache keeps finished golden artefacts between campaigns so the
// shards and jobs of one campaign that one process executes — a nocalertd
// worker running several shards of a dispatch, a resumed job — build the
// golden reference once. Entries are keyed by every input the artefact
// depends on and bounded in bytes with least-recently-used eviction. Only
// whole artefacts go in: a Run that finds none for its key builds its own
// and offers it when it is done, so two Runs of one key that overlap each
// build, and the cache keeps the first to finish. The zero value is not
// usable; a nil *GoldenCache is, and caches nothing. Safe for concurrent
// use.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	bytes   int64 // footprint of the entries
	budget  int64
	clock   uint64 // last-use stamp source
}

// goldenEntry is one key's artefact and when it was last used.
type goldenEntry struct {
	g    *Golden
	used uint64
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

// get returns the finished artefact kept under key — a hit — or nil when
// the cache holds none (or the key is empty: nothing to find it under).
func (c *GoldenCache) get(key goldenKey) *Golden {
	if c == nil || key == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	c.clock++
	e.used = c.clock
	return e.g
}

// settle is offered g when its build has just ended. A whole artefact
// with a key is kept and charged against the budget, unless the key
// already has one (an overlapping Run's build finished first); a failed
// one is not kept.
func (c *GoldenCache) settle(g *Golden) {
	if c == nil || g.key == "" || g.err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[g.key] != nil {
		return
	}
	c.clock++
	c.entries[g.key] = &goldenEntry{g: g, used: c.clock}
	c.bytes += g.footprint()
	c.evict()
}

// evict drops least-recently-used entries until the cache fits its
// budget. Campaigns still running off an evicted artefact keep their own
// reference. Caller holds mu.
func (c *GoldenCache) evict() {
	for c.bytes > c.budget {
		var oldest goldenKey
		var oe *goldenEntry
		for k, e := range c.entries {
			if oe == nil || e.used < oe.used {
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
