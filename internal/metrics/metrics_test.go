package metrics

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from
// many goroutines; run under -race this is the registry's concurrency
// contract (make test / the campaign acceptance gate).
func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits")
			g := reg.Gauge("level")
			h := reg.Histogram("lat", []float64{1, 2, 4})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 6))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("level").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("lat", []float64{1, 2, 4}).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramBucketBoundaries pins the bucket semantics: upper bounds
// are inclusive, the extra trailing bucket catches overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 1} // (-inf,1] (1,2] (2,4] (4,+inf)
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket counts = %v, want %v", got, want)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 17 {
		t.Fatalf("sum = %g, want 17", h.Sum())
	}
}

// TestSnapshotDeterministic: two snapshots with no intervening writes
// must be deeply equal and encode to identical bytes (sorted names, no
// map-order leakage).
func TestSnapshotDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		reg.Counter("c_" + name).Add(3)
		reg.Gauge("g_" + name).Set(1.5)
		reg.Histogram("h_"+name, []float64{1, 10}).Observe(2)
	}
	s1, s2 := reg.Snapshot(), reg.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	var b1, b2 bytes.Buffer
	if err := reg.WriteOpenMetrics(&b1); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteOpenMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("OpenMetrics expositions of identical state differ")
	}
	if !sorted(s1.Counters, func(c CounterValue) string { return c.Name }) {
		t.Fatal("counters not sorted by name")
	}
}

func sorted[T any](xs []T, key func(T) string) bool {
	for i := 1; i < len(xs); i++ {
		if key(xs[i-1]) > key(xs[i]) {
			return false
		}
	}
	return true
}

// TestRegistryReuseAndMismatch: same name returns the same instrument;
// cross-kind reuse and histogram layout changes are programming errors
// that panic.
func TestRegistryReuseAndMismatch(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if reg.Histogram("h", []float64{1, 2}) != reg.Histogram("h", []float64{1, 2}) {
		t.Fatal("Histogram not idempotent")
	}
	mustPanic(t, "counter as gauge", func() { reg.Gauge("x") })
	mustPanic(t, "histogram bounds mismatch", func() { reg.Histogram("h", []float64{1, 3}) })
	mustPanic(t, "unsorted bounds", func() { reg.Histogram("bad", []float64{2, 1}) })
}

// TestRegistryRefusesCollidingNames: two instruments whose expositions
// would write one family name, or one sample name, are refused like a
// kind mismatch, in either registration order; so are a family name no
// scraper takes and a bound that is not finite. What the registry kept
// still writes an exposition its validator takes.
func TestRegistryRefusesCollidingNames(t *testing.T) {
	for _, pair := range []struct {
		what        string
		first, then func(r *Registry)
	}{
		{"counter foo_total and gauge foo", func(r *Registry) { r.Counter("foo_total") }, func(r *Registry) { r.Gauge("foo") }},
		{"counters bar and bar_total", func(r *Registry) { r.Counter("bar") }, func(r *Registry) { r.Counter("bar_total") }},
		{"histogram h and gauge h_count", func(r *Registry) { r.Histogram("h", []float64{1}) }, func(r *Registry) { r.Gauge("h_count") }},
		{"counter x and gauge x_total", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Gauge("x_total") }},
		{"histogram h and counter h_sum", func(r *Registry) { r.Histogram("h", []float64{1}) }, func(r *Registry) { r.Counter("h_sum") }},
	} {
		for _, order := range [][2]func(*Registry){{pair.first, pair.then}, {pair.then, pair.first}} {
			reg := NewRegistry()
			order[0](reg)
			mustPanic(t, pair.what, func() { order[1](reg) })
			var buf bytes.Buffer
			if err := reg.WriteOpenMetrics(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateOpenMetrics(&buf); err != nil {
				t.Errorf("%s: the registry kept an exposition its validator refuses: %v", pair.what, err)
			}
		}
	}
	reg := NewRegistry()
	mustPanic(t, "counter _total (family \"\")", func() { reg.Counter("_total") })
	mustPanic(t, "gauge a-b", func() { reg.Gauge("a-b") })
	mustPanic(t, "a +Inf bound", func() { reg.Histogram("inf", []float64{1, math.Inf(1)}) })
	mustPanic(t, "a NaN bound", func() { reg.Histogram("nan", []float64{math.NaN(), 1}) })
	// A refused registration claims no name.
	reg.Histogram("inf", []float64{1, 2})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestBoundsHelpers pins the bucket-layout generator.
func TestBoundsHelpers(t *testing.T) {
	if got, want := ExponentialBounds(0.5, 2, 4), []float64{0.5, 1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ExponentialBounds = %v, want %v", got, want)
	}
}
