package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotConsistentUnderConcurrentWrites hammers counters and
// histograms from many goroutines while snapshotting in a tight loop,
// asserting every snapshot's histograms are internally consistent:
// Count == Σ bucket counts and Sum == Count (each observation is 1.0).
// Before Snapshot became the single lock-ordered path this failed under
// -race and could surface Count/Counts skew.
func TestSnapshotConsistentUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total")
	g := r.Gauge("hammer_gauge")
	h := r.Histogram("hammer_seconds", []float64{0.5, 1, 1.5, 2})

	const writers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.Inc()
				g.Add(1)
				h.Observe(1.0)
			}
		}()
	}

	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		for _, hv := range s.Histograms {
			var sum int64
			for _, n := range hv.Counts {
				sum += n
			}
			if sum != hv.Count {
				t.Fatalf("snapshot %d: histogram %q Σ buckets %d != count %d",
					i, hv.Name, sum, hv.Count)
			}
			if hv.Sum != float64(hv.Count) {
				t.Fatalf("snapshot %d: histogram %q sum %g != count %d (all observations are 1.0)",
					i, hv.Name, hv.Sum, hv.Count)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced: the final snapshot must agree with the instruments.
	s := r.Snapshot()
	if got, want := s.Counters[0].Value, c.Value(); got != want {
		t.Errorf("final counter snapshot %d != live value %d", got, want)
	}
	if got, want := s.Histograms[0].Count, h.Count(); got != want {
		t.Errorf("final histogram snapshot count %d != live count %d", got, want)
	}
}

// TestWriteOpenMetricsUnderConcurrentWrites scrapes the OpenMetrics
// endpoint shape while writers are active; every exposition must lint
// clean.
func TestWriteOpenMetricsUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scrape_seconds", ExponentialBounds(0.001, 10, 4))
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			h.Observe(0.02)
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteOpenMetrics(&sb); err != nil {
			t.Fatalf("WriteOpenMetrics: %v", err)
		}
		if _, err := ValidateOpenMetrics(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("scrape %d failed validation: %v\n%s", i, err, sb.String())
		}
	}
	stop.Store(true)
	wg.Wait()
}
