// Package trace is the repository's durable record of campaign runs: the
// NDJSON run record every completed fault run is flattened to, the
// append-only shard checkpoints built from those records, the daemon's
// job-state manifests, and the torn-tail-tolerant NDJSON decoder they
// (and the span stream) are read back with.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// RunRecord is one NDJSON line of a campaign run trace: everything
// needed to recover, re-aggregate or post-process a fault run without
// the in-memory report. The faultcampaign CLI streams one record per
// completed run (-trace), so an interrupted campaign leaves a parseable
// partial result behind.
//
// The fields mirror campaign.RunResult flattened to plain JSON types;
// latencies are -1 when the mechanism never detected.
type RunRecord struct {
	// Index is the run's position in the campaign's fault list; records
	// arrive in completion order, not index order.
	Index int `json:"index"`

	// Fault site identity.
	Router    int    `json:"router"`
	Signal    string `json:"signal"` // fault.Kind string, e.g. "sa1_gnt"
	Port      int    `json:"port"`
	VC        int    `json:"vc"` // -1 for per-port signals
	Bit       int    `json:"bit"`
	FaultType string `json:"fault_type"` // transient/permanent/intermittent
	Cycle     int64  `json:"inject_cycle"`

	// Run behaviour.
	Fired    bool `json:"fired"`
	Drained  bool `json:"drained"`
	FastPath bool `json:"fast_path"`

	// Golden-reference verdict.
	Malicious bool `json:"malicious"`
	Unbounded bool `json:"unbounded"`

	// Per-mechanism classification ("TP"/"FP"/"TN"/"FN") and detection
	// latency in cycles.
	Outcome         string `json:"nocalert_outcome"`
	Latency         int64  `json:"nocalert_latency"`
	CautiousOutcome string `json:"cautious_outcome"`
	CautiousLatency int64  `json:"cautious_latency"`
	ForeverOutcome  string `json:"forever_outcome"`
	ForeverLatency  int64  `json:"forever_latency"`

	// Checker attribution: every checker that fired during the run, and
	// the subset asserted in the first detection cycle. Carrying these
	// makes the record stream sufficient to rebuild the aggregated
	// report (Figures 8 and 9) bit-identically, which is what lets
	// sharded campaigns merge into the same report an unsharded run
	// produces.
	CheckersFired      []int `json:"checkers_fired,omitempty"`
	FirstCycleCheckers []int `json:"first_cycle_checkers,omitempty"`

	// WallSeconds is the run's wall-clock cost on its worker. It is the
	// one field that legitimately differs between two executions of the
	// same fault; canonical comparisons (CanonicalBytes) zero it.
	WallSeconds float64 `json:"wall_seconds"`
}

// CanonicalBytes returns the record's canonical JSON: WallSeconds —
// the only execution-dependent field — zeroed, everything else as
// written. Two runs of the same fault from the same campaign spec are
// canonical-byte-identical, which is what resume verification, shard
// merging and golden fixtures compare.
func (r *RunRecord) CanonicalBytes() []byte {
	c := *r
	c.WallSeconds = 0
	b, err := json.Marshal(&c)
	if err != nil {
		// RunRecord contains only plain JSON-marshalable types.
		panic(fmt.Sprintf("trace: canonical marshal: %v", err))
	}
	return b
}

// RunWriter streams RunRecords as NDJSON — one compact JSON object per
// line. Write is safe for concurrent use (the campaign serializes
// OnResult, but the writer does not rely on it). Each record reaches
// the underlying writer before Write returns, so an interrupted
// campaign keeps every completed run on disk — only a line torn by a
// hard kill mid-write is lost, and DecodeTolerant tolerates that.
type RunWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	records int
}

// NewRunWriter returns a writer streaming to w.
func NewRunWriter(w io.Writer) *RunWriter {
	bw := bufio.NewWriter(w)
	return &RunWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a single NDJSON line. The buffer
// assembles the line, then drains, so the underlying writer sees whole
// records (one write per run, far off the simulation's hot path).
func (rw *RunWriter) Write(rec *RunRecord) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if err := rw.enc.Encode(rec); err != nil { // Encode appends the newline
		return err
	}
	if err := rw.bw.Flush(); err != nil {
		return err
	}
	rw.records++
	return nil
}

// Records returns the number of records written so far.
func (rw *RunWriter) Records() int {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.records
}

// Flush drains the buffer to the underlying writer.
func (rw *RunWriter) Flush() error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.bw.Flush()
}
