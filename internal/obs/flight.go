package obs

import (
	"encoding/json"
	"io"
	"sync"

	"nocalert/internal/trace"
)

// Event is one flight-recorder entry: a cycle-stamped observation from
// the campaign's hot path (a fork verification, a full fingerprint
// probe, a detection or assertion summary, a fast-forward freeze).
type Event struct {
	// Seq is the recorder-assigned sequence number, monotonically
	// increasing across the whole campaign, so a dump shows how much
	// history the ring evicted.
	Seq uint64 `json:"seq"`
	// Run is the run's index in the fault universe; -1 for
	// campaign-level events (the golden template run, merge checks).
	Run int `json:"run"`
	// Cycle is the simulation cycle the event is about.
	Cycle int64 `json:"cycle"`
	// Kind classifies the event: "fork_verify", "frontier_empty",
	// "detection", "assertion", "ff_freeze", "shard_manifest", ...
	Kind   string         `json:"kind"`
	Detail string         `json:"detail,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Dump is the JSON object a flight-recorder dump emits: the anomaly
// that triggered it plus the ring's surviving history, oldest first.
type Dump struct {
	Reason string  `json:"reason"`
	Events []Event `json:"events"`
}

// DefaultFlightCapacity is the ring size NewFlightRecorder uses for
// capacity <= 0.
const DefaultFlightCapacity = 256

// FlightRecorder is a bounded ring of recent Events that dumps its
// history when an anomaly fires — the campaign's black box. Recording
// is mutex-protected but events arrive at run-boundary rate (a handful
// per run), far off the per-cycle hot path. All methods are nil-safe.
type FlightRecorder struct {
	mu    sync.Mutex
	sink  io.Writer
	buf   []Event
	start int // index of the oldest event
	n     int // live events in buf
	seq   uint64
	dumps int
	err   error
}

// NewFlightRecorder returns a recorder holding the last capacity events
// (DefaultFlightCapacity when <= 0). sink receives anomaly dumps as
// NDJSON — one Dump object per line — and may be nil (dumps are still
// counted, for tests and exit-code decisions).
func NewFlightRecorder(capacity int, sink io.Writer) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{sink: sink, buf: make([]Event, capacity)}
}

// Record appends one event, evicting the oldest when the ring is full.
func (fr *FlightRecorder) Record(ev Event) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.recordLocked(ev)
}

func (fr *FlightRecorder) recordLocked(ev Event) {
	fr.seq++
	ev.Seq = fr.seq
	i := (fr.start + fr.n) % len(fr.buf)
	fr.buf[i] = ev
	if fr.n < len(fr.buf) {
		fr.n++
	} else {
		fr.start = (fr.start + 1) % len(fr.buf)
	}
}

// Events returns the ring's contents, oldest first. Tests read the ring
// through it (TestFlightRecorderRingEviction, campaign's
// TestSpanStreamGolden4x4).
func (fr *FlightRecorder) Events() []Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.eventsLocked()
}

func (fr *FlightRecorder) eventsLocked() []Event {
	out := make([]Event, 0, fr.n)
	for i := 0; i < fr.n; i++ {
		out = append(out, fr.buf[(fr.start+i)%len(fr.buf)])
	}
	return out
}

// Anomaly records ev and immediately dumps the ring under reason: the
// auto-dump path for fork-verify mismatches, merge fingerprint
// divergence and missed-detection verdicts.
func (fr *FlightRecorder) Anomaly(reason string, ev Event) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.recordLocked(ev)
	fr.dumpLocked(reason)
}

// Dump writes the ring's history under reason without an anomaly event
// — the campaign-end dump that makes the black box inspectable even
// for clean runs.
func (fr *FlightRecorder) Dump(reason string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.dumpLocked(reason)
}

func (fr *FlightRecorder) dumpLocked(reason string) {
	fr.dumps++
	if fr.sink == nil {
		return
	}
	d := Dump{Reason: reason, Events: fr.eventsLocked()}
	if err := json.NewEncoder(fr.sink).Encode(&d); err != nil && fr.err == nil {
		fr.err = err
	}
}

// Dumps returns how many dumps (anomalies plus explicit Dump calls)
// have fired; the anomaly tests count with it (campaign's
// TestForkVerifyMismatchDumpsFlightRecorder, TestMissedDetectionAnomaly).
func (fr *FlightRecorder) Dumps() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.dumps
}

// Err returns the first sink write error, if any.
func (fr *FlightRecorder) Err() error {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.err
}

// ReadDumps parses a dump sink's NDJSON stream (torn-tail tolerant,
// like every other NDJSON reader in the repository). Only tests read dumps
// back (TestAnomalyDumpsRingAsNDJSON, campaign's
// TestForkVerifyMismatchDumpsFlightRecorder).
func ReadDumps(r io.Reader) ([]Dump, error) {
	return trace.DecodeTolerant[Dump](r)
}
