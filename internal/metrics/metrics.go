// Package metrics is a lightweight, dependency-free, concurrency-safe
// telemetry registry for the simulator, the campaign engine and the
// command-line drivers: named counters, gauges and fixed-bucket
// histograms with a deterministic snapshot and its OpenMetrics export.
//
// Design constraints, in order:
//
//   - Zero cost when unused. Every layer that accepts a *Registry
//     treats nil as "telemetry off" and the hot paths pay one branch.
//   - Lock-free updates. Counter, Gauge and Histogram are updated with
//     atomics only; the registry mutex guards instrument creation and
//     snapshotting, never the per-event path.
//   - Deterministic snapshots. Snapshot output is sorted by name, so
//     two snapshots taken with no intervening writes are deeply equal
//     and byte-identical once encoded — the property the /metrics
//     endpoint and the regression tests rely on.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is ready
// to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone; this is
// not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d atomically (CAS loop; Set is cheaper when the old value
// does not matter).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with bounds[i-1] < v <= bounds[i]; one extra overflow
// bucket counts v > bounds[len-1]. Buckets are non-cumulative.
//
// The bucket/count/sum triple is updated with atomics so concurrent
// observers never contend on a lock; the RWMutex exists only so
// Registry.Snapshot can take the write side and read a coherent triple
// (count == Σ buckets, sum covering exactly those observations) while
// observers briefly queue behind it.
type Histogram struct {
	mu      sync.RWMutex
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the smallest i with bounds[i] >= v, which
	// is exactly the "v <= upper bound" bucket; v above every bound
	// lands on len(bounds), the overflow bucket.
	h.mu.RLock()
	defer h.mu.RUnlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns a copy of the per-bucket counts; the last entry
// is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// ExponentialBounds returns count upper bounds start, start*factor, ...
func ExponentialBounds(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBounds needs count >= 1, start > 0, factor > 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of instruments. Instruments are
// created on first use and shared thereafter. A name the OpenMetrics
// exposition could not carry panics at registration, since it is a
// programming error no caller can recover from: one that is no valid
// metric name, one registered for two different instrument kinds (or two
// different histogram layouts), and one whose family or sample names
// (see WriteOpenMetrics) another instrument already writes, such as the
// counters "foo" and "foo_total", or the histogram "h" and the gauge
// "h_count".
//
// A nil *Registry is the "telemetry off" convention used throughout the
// repository; packages accepting a registry must nil-check before
// resolving instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// written maps every name the exposition writes, family and sample
	// names alike, to the instrument that writes it.
	written map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		written:    make(map[string]string),
	}
}

// exposedNames lists what the exposition of an instrument of the given
// kind registered as name writes: its family name first, then its
// sample names.
func exposedNames(kind, name string) []string {
	switch kind {
	case "counter":
		family := counterFamily(name)
		return []string{family, family + "_total"}
	case "histogram":
		return []string{name, name + "_bucket", name + "_sum", name + "_count"}
	}
	return []string{name}
}

// claim reserves the names a new instrument's exposition writes, or
// panics when its family is no valid metric name or another instrument
// writes one of them already.
func (r *Registry) claim(kind, name string) {
	names := exposedNames(kind, name)
	if !omNameRe.MatchString(names[0]) {
		panic(fmt.Sprintf("metrics: %s %q has the invalid family name %q", kind, name, names[0]))
	}
	for _, n := range names {
		if owner, ok := r.written[n]; ok {
			panic(fmt.Sprintf("metrics: %s %q would write %q, which the %s already writes", kind, name, n, owner))
		}
	}
	owner := fmt.Sprintf("%s %q", kind, name)
	for _, n := range names {
		r.written[n] = owner
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.claim("counter", name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.claim("gauge", name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (which must be finite and strictly
// increasing; the +Inf bucket is implicit) on first use. Re-registering
// with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if len(bounds) != len(h.bounds) {
			panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if bounds[i] != h.bounds[i] {
				panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not finite and strictly increasing", name))
		}
	}
	r.claim("histogram", name)
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot; Counts has one entry
// per bound plus the trailing overflow bucket.
type HistogramValue struct {
	Name   string
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot is a point-in-time copy of every instrument, sorted by name
// within each kind.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot captures every instrument. Counters and gauges are single
// atomics, so each value is exact at some instant. Histograms are
// multi-word: Snapshot is the single lock-ordered path that takes each
// histogram's write lock — in sorted-name order, while holding the
// registry mutex — so every HistogramValue is internally consistent
// (Count == Σ Counts, Sum covering exactly those observations) even
// under concurrent observers. No other code path takes more than one
// instrument lock, so the ordering cannot deadlock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	hnames := make([]string, 0, len(r.histograms))
	for name := range r.histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.histograms[name]
		h.mu.Lock()
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: h.BucketCounts(),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		h.mu.Unlock()
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}
