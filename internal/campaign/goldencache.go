package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/obs"
	"nocalert/internal/sim"
)

// Golden is the fault-free half of a campaign: everything the golden
// warm-up produces and every faulty run only reads — one groupCtx per
// distinct injection cycle, the snapshot ring they fork from and the
// footprint totals the report carries. It depends on the campaign's
// options and injection-cycle set but on no individual fault, so shards
// and jobs of one campaign share a single artefact. A Golden is
// immutable once buildGolden returns it: workers of any number of
// concurrent Runs read it without synchronization, exactly as the
// workers of one Run always have.
type Golden struct {
	// key names the inputs the artefact was built from; Run refuses an
	// artefact whose key is not the one it asked for.
	key    goldenKey
	groups map[int64]*groupCtx
	ring   *snapshotRing
	// timelineBytes is the estimated footprint of the per-run records
	// (signal transcripts through the golden drain, window-end states,
	// counter timelines, the ForEVeR monitors' per-node records).
	timelineBytes int64
	// logBytes is the estimated footprint of the golden reference logs,
	// which no report field carries.
	logBytes int64
	// endCycle is where the golden mainline stopped: the last injection
	// cycle plus the final continuation.
	endCycle int64
}

// footprint is what the artefact charges against a cache's budget: the
// snapshot ring, the per-window records and the golden reference logs.
// The ForEVeR monitor and result template of each injection cycle (a
// few words per node) are not counted.
func (g *Golden) footprint() int64 { return g.ring.bytes + g.timelineBytes + g.logBytes }

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
// distinct injection cycles, the snapshot plan and the key naming them
// together with every option the warm-up reads. The fault list enters
// only through the cycle set and the plan (which looks at the fault
// histogram only past snapshotBudget cycles); Workers, the hooks and the
// context never do. %#v spells Sim and Forever out field by field with
// the dynamic types of the routing algorithm and traffic pattern, so a
// value field added to either config changes the key without an edit
// here. That holds for configs made of values, as every in-tree routing
// algorithm and traffic pattern is; one that holds a pointer (a
// caller's pointer-typed Pattern, say) gets the empty key, which no
// cache keeps. o must have been through withDefaults.
func (o *Options) goldenInputs() (cycles, plan []int64, key goldenKey) {
	cycles = distinctCycles(o.FaultGroups)
	plan = planSnapshots(o, cycles)
	if !valueOnly(reflect.ValueOf(o.Sim)) || !valueOnly(reflect.ValueOf(o.Forever)) {
		return cycles, plan, ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "sim=%#v\nforever=%#v\npost=%d drain=%d checkers=%v\n",
		o.Sim, o.Forever, o.PostInjectRun, o.DrainDeadline, o.CheckersDisabled)
	fmt.Fprintf(h, "nofastpath=%t noreconverge=%t nofork=%t nofastforward=%t nofrontier=%t noforever=%t interval=%d\n",
		o.DisableFastPath, o.DisableReconvergence, o.DisableFork, o.DisableFastForward,
		o.DisableFrontier, o.DisableForever, o.SnapshotInterval)
	fmt.Fprintf(h, "cycles=%v\nplan=%v\n", cycles, plan)
	return cycles, plan, goldenKey(hex.EncodeToString(h.Sum(nil)))
}

// ctxCheckCycles is how many mainline cycles the warm-up steps between
// looks at the context: a cancel lands within a few hundred cycles
// without the check showing up in the step loop.
const ctxCheckCycles = 256

// buildGolden runs the golden warm-up: one fault-free mainline stepped
// once from cycle 0 to the last injection cycle, capturing the snapshot
// ring along the way and spawning one golden continuation per injection
// cycle. It honours o.Context between mainline cycles and between group
// contexts. warm, the golden-warmup span (nil when tracing is off), gets
// child phase spans per injection cycle: the mainline stretch up to it
// and the parts of its group context.
func buildGolden(o *Options, cycles, plan []int64, key goldenKey, warm *obs.Span) (*Golden, error) {
	ring := &snapshotRing{}
	mainline, err := sim.New(o.Sim, nil)
	if err != nil {
		return nil, err
	}
	if !o.DisableForever {
		mainline.AttachMonitor(forever.NewMonitor(mainline.RouterConfig(), o.Forever))
	}
	wantReconv := !o.DisableFastPath && !o.DisableReconvergence
	g := &Golden{key: key, groups: make(map[int64]*groupCtx, len(cycles)), ring: ring}
	next := 0 // next snapshot plan entry
	var tw worker
	for ci, c := range cycles {
		ml := warm.Child("phase", "mainline")
		ml.SetAttr("from_cycle", mainline.Cycle())
		ml.SetAttr("to_cycle", c)
		for {
			if next < len(plan) && mainline.Cycle() == plan[next] {
				ring.capture(mainline)
				next++
			}
			if mainline.Cycle() >= c {
				break
			}
			if mainline.Cycle()%ctxCheckCycles == 0 {
				if err := o.Context.Err(); err != nil {
					ml.End()
					return nil, err
				}
			}
			mainline.Step()
			// Nothing reads a mainline ejection: a continuation's golden
			// log starts at its injection cycle and snapshots carry no log.
			// Dropped as they come, they are not copied into every
			// continuation either, nor pin 32 000 cycles of delivered flits.
			mainline.ResetEjections()
		}
		ml.End()
		if err := o.Context.Err(); err != nil {
			return nil, err
		}
		gc, err := buildGroupCtx(mainline, ring, &tw, *o, c, ci == len(cycles)-1, wantReconv, warm)
		if err != nil {
			return nil, err
		}
		g.groups[c] = gc
		g.logBytes += gc.goldenLog.ApproxFootprintBytes()
		g.timelineBytes += gc.rec.ApproxFootprintBytes()
		if gc.wend != nil {
			g.timelineBytes += gc.wend.ApproxFootprintBytes()
		}
		if gc.gfv != nil {
			g.timelineBytes += gc.gfv.ApproxHistoryBytes()
		}
		if gc.rc != nil {
			g.timelineBytes += gc.rc.tl.ApproxFootprintBytes()
		}
	}
	g.endCycle = mainline.Cycle()
	return g, nil
}

// goldenCacheBudget caps the estimated bytes (Golden.footprint: snapshot
// ring, per-window records, golden logs) a GoldenCache retains. A
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
	cacheWait = "wait" // built by a concurrent Run this one waited for
)

// GoldenCache keeps golden artefacts between campaigns so the shards and
// jobs of one campaign that one process executes — a nocalertd worker
// running several shards of a dispatch, a resumed job — build the golden
// reference once. Entries are keyed by every input the artefact depends
// on, bounded in bytes with least-recently-used eviction, and built at
// most once at a time per key: a Run that finds its key being built
// waits for that build. The zero value is not usable; a nil *GoldenCache
// is, and caches nothing. Safe for concurrent use.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	bytes   int64 // footprint of the built entries
	budget  int64
	clock   uint64 // last-use stamp source
}

// goldenEntry is one key's slot: in flight until done is closed, then
// either built (g set, still in the map) or failed (removed).
type goldenEntry struct {
	done chan struct{}
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

// get returns the artefact for key, calling build when the cache holds
// none (or the key is empty: nothing to find it under), and says which
// of the three ways it came by it. A caller that
// finds the key in flight waits for that build under its own ctx only:
// if the builder fails — its context cancelled, say — the entry is
// dropped, nothing is cached, and the waiters try again, the first of
// them building.
func (c *GoldenCache) get(ctx context.Context, key goldenKey, build func() (*Golden, error)) (*Golden, string, error) {
	if c == nil || key == "" {
		g, err := build()
		return g, cacheMiss, err
	}
	for {
		c.mu.Lock()
		e := c.entries[key]
		if e == nil {
			e = &goldenEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			g, err := c.fill(key, e, build)
			return g, cacheMiss, err
		}
		if e.g != nil {
			c.clock++
			e.used = c.clock
			c.mu.Unlock()
			return e.g, cacheHit, nil
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			// fill set e.g before closing done. The waiter takes it from
			// the entry it holds, which also serves an artefact too big
			// for the cache to keep.
			if e.g != nil {
				return e.g, cacheWait, nil
			}
		case <-ctx.Done():
			return nil, cacheWait, ctx.Err()
		}
	}
}

// fill runs build for the in-flight entry e and publishes or drops it.
// The deferred half also runs when build panics, so waiters are never
// left on a channel nobody will close.
func (c *GoldenCache) fill(key goldenKey, e *goldenEntry, build func() (*Golden, error)) (g *Golden, err error) {
	defer func() {
		c.mu.Lock()
		if g != nil && err == nil {
			c.clock++
			e.g, e.used = g, c.clock
			c.bytes += g.footprint()
			c.evict()
		} else {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	return build()
}

// evict drops least-recently-used built entries until the cache fits its
// budget. Campaigns still running off an evicted artefact keep their own
// reference. Caller holds mu.
func (c *GoldenCache) evict() {
	for c.bytes > c.budget {
		var oldest goldenKey
		var oe *goldenEntry
		for k, e := range c.entries {
			if e.g != nil && (oe == nil || e.used < oe.used) {
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
