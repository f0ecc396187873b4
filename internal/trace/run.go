// Package trace is the repository's record of campaign runs: the run
// record every completed fault run is, from the worker to the report, the
// append-only shard checkpoints built from those records, the daemon's
// job-state manifests, and the torn-tail-tolerant NDJSON decoder they
// (and the span stream) are read back with.
package trace

import (
	"encoding/json"
	"fmt"

	"nocalert/internal/core"
)

// Outcome classifies one mechanism's behaviour on one injected fault,
// following the paper's four categories (§5.4). A record writes it as its
// abbreviation ("TP"/"FP"/"TN"/"FN") and refuses any other text on
// reading. The zero Outcome is none of the four: a record that lacks one
// does not pass for a true negative (Known).
type Outcome int

const (
	// TrueNegative: nothing detected, fault benign.
	TrueNegative Outcome = iota + 1
	// TruePositive: detected, fault caused a network-correctness
	// violation.
	TruePositive
	// FalsePositive: detected, fault benign.
	FalsePositive
	// FalseNegative: not detected, fault caused a violation — the
	// outcome NoCAlert's design goal drives to zero.
	FalseNegative
)

var outcomeNames = [...]string{TrueNegative: "TN", TruePositive: "TP", FalsePositive: "FP", FalseNegative: "FN"}

// Known reports whether o is one of the four outcomes.
func (o Outcome) Known() bool { return o >= TrueNegative && o <= FalseNegative }

// Detected reports whether the mechanism raised an alarm: a true or a
// false positive.
func (o Outcome) Detected() bool { return o == TruePositive || o == FalsePositive }

// String returns the outcome's abbreviation.
func (o Outcome) String() string {
	if o.Known() {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// MarshalText writes the outcome's abbreviation; an unknown outcome is
// written as its String, which no reader accepts.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText reads an abbreviation back and refuses any other text.
func (o *Outcome) UnmarshalText(b []byte) error {
	for k := TrueNegative; k <= FalseNegative; k++ {
		if string(b) == outcomeNames[k] {
			*o = k
			return nil
		}
	}
	return fmt.Errorf("trace: unknown outcome %q", b)
}

// RunRecord is a campaign's one description of a fault run: the run path
// emits it, the in-process report's figures fold over it, and a shard
// checkpoint holds one NDJSON line of it per completed run (faultcampaign
// -checkpoint), so an interrupted campaign leaves a resumable partial
// result behind and merging the checkpoints rebuilds the same report.
// Latencies are -1 when the mechanism never detected.
type RunRecord struct {
	// Index is the run's position in the campaign's fault list; records
	// arrive in completion order, not index order.
	Index int `json:"index"`

	// Fault site identity: the fault's, or in a multi-fault run the first
	// fault's of the group.
	Router    int    `json:"router"`
	Signal    string `json:"signal"` // fault.Kind string, e.g. "sa1_gnt"
	Port      int    `json:"port"`
	VC        int    `json:"vc"` // -1 for per-port signals
	Bit       int    `json:"bit"`
	FaultType string `json:"fault_type"` // transient/permanent/intermittent
	Cycle     int64  `json:"inject_cycle"`

	// Run behaviour: whether the fault corrupted a live signal, whether
	// the faulty network emptied in time, and whether the run was
	// resolved by the fast path (its faults never fired).
	Fired    bool `json:"fired"`
	Drained  bool `json:"drained"`
	FastPath bool `json:"fast_path"`

	// Golden-reference verdict: whether the run violated network
	// correctness, and whether by failing to deliver in bounded time.
	Malicious bool `json:"malicious"`
	Unbounded bool `json:"unbounded"`

	// Per-mechanism classification and detection latency in cycles.
	Outcome         Outcome `json:"nocalert_outcome"`
	Latency         int64   `json:"nocalert_latency"`
	CautiousOutcome Outcome `json:"cautious_outcome"`
	CautiousLatency int64   `json:"cautious_latency"`
	ForeverOutcome  Outcome `json:"forever_outcome"`
	ForeverLatency  int64   `json:"forever_latency"`

	// Checker attribution: every checker that fired during the run, and
	// the subset asserted in the first detection cycle, in id order
	// (Figures 8 and 9).
	CheckersFired      []core.CheckerID `json:"checkers_fired,omitempty"`
	FirstCycleCheckers []core.CheckerID `json:"first_cycle_checkers,omitempty"`

	// WallSeconds is the run's wall-clock cost on its worker, measured only
	// when someone listens to the runs (zero otherwise). It is the one
	// field that legitimately differs between two executions of the same
	// fault; canonical comparisons (CanonicalBytes) zero it.
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
