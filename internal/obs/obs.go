// Package obs is the campaign stack's observability layer: a
// hierarchical span tracer (campaign → shard → run → phase, with the
// daemon's job span on top) and a bounded flight recorder that
// auto-dumps on anomalies.
//
// Spans carry the cycle-accurate accounting the engine already tracks —
// injection cycle, fork source snapshot, cycles simulated versus
// synthesized, verdicts and checker IDs — and a shared trace ID that
// threads from a nocalertd job down to every run it executes, so one
// grep over the span stream reconstructs why any single run took the
// exit path it did. The NDJSON stream is append-only and
// truncation-tolerant (ReadSpans reuses the checkpoint reader's
// torn-tail handling); WriteOTLP re-exports retained spans as an
// OTLP/JSON dump any OpenTelemetry-compatible backend ingests.
//
// Design constraints mirror internal/metrics: a nil *Tracer (and a nil
// *Span) is "tracing off" and every method is nil-safe, so call sites
// thread spans unconditionally and the disabled path costs one branch.
// Run spans are sampling-capable (Options.SampleEvery) for campaigns
// large enough that per-run spans would dominate the run itself.
package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/trace"
)

// SpanRecord is one NDJSON line of a span stream: a completed span with
// its identity, hierarchy and attributes. Records are written at span
// end, so the stream is ordered by completion, not by start.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Kind is the hierarchy level: "job", "campaign", "shard", "run" or
	// "phase".
	Kind      string         `json:"kind"`
	Name      string         `json:"name"`
	StartNano int64          `json:"start_unix_nano"`
	EndNano   int64          `json:"end_unix_nano"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// Duration returns the span's wall-clock duration.
func (r SpanRecord) Duration() time.Duration {
	return time.Duration(r.EndNano - r.StartNano)
}

// Int returns attribute key as an int64 (JSON numbers decode as
// float64; spans written in-process hold native ints). ok is false when
// the attribute is absent or not numeric.
func (r SpanRecord) Int(key string) (int64, bool) {
	switch v := r.Attrs[key].(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// Options configures a Tracer.
type Options struct {
	// Writer receives the NDJSON span stream, one record per completed
	// span, flushed per record so a killed process loses at most one
	// torn line. Nil is valid when Retain is set (OTLP-dump-only use).
	Writer io.Writer
	// SampleEvery records the spans of one in every n runs (run index
	// i is sampled when i%n == 0, so sampling is deterministic and
	// resume-stable). Values < 1 mean 1: every run. Campaign, shard,
	// job and golden-phase spans are never sampled out.
	SampleEvery int
	// Retain keeps every completed span in memory for WriteOTLP.
	Retain bool
	// Service names the emitting process in the OTLP resource
	// (service.name); defaults to "nocalert".
	Service string
	// Metrics, when non-nil, receives one phase-duration histogram per
	// phase name (campaign_phase_<name>_seconds), fed at phase-span end.
	Metrics *metrics.Registry
}

// phaseBounds is the phase-duration histogram layout: 1 µs … ~17 min.
var phaseBounds = metrics.ExponentialBounds(1e-6, 4, 16)

// Tracer emits spans for one process-wide trace. All methods are safe
// for concurrent use and nil-safe: a nil *Tracer records nothing.
type Tracer struct {
	opts    Options
	traceID string
	nextID  atomic.Uint64

	mu       sync.Mutex
	bw       *bufio.Writer
	enc      *json.Encoder
	retained []SpanRecord
	phaseHis map[string]*metrics.Histogram
	spans    int
	err      error
}

// New returns a Tracer with a fresh random trace ID.
func New(o Options) *Tracer {
	if o.SampleEvery < 1 {
		o.SampleEvery = 1
	}
	if o.Service == "" {
		o.Service = "nocalert"
	}
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	t := &Tracer{opts: o, traceID: hex.EncodeToString(b[:])}
	if o.Writer != nil {
		t.bw = bufio.NewWriter(o.Writer)
		t.enc = json.NewEncoder(t.bw)
	}
	if o.Metrics != nil {
		t.phaseHis = make(map[string]*metrics.Histogram)
	}
	return t
}

// TraceID returns the trace correlation ID ("" on a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Sampled reports whether run index i's spans are recorded under the
// tracer's sampling rate. Negative indices (internal template runs) are
// never sampled.
func (t *Tracer) Sampled(i int) bool {
	if t == nil || i < 0 {
		return false
	}
	return i%t.opts.SampleEvery == 0
}

// Start opens a span. parent may be nil (a root span) and t may be nil
// (returns nil, and every Span method on nil is a no-op).
func (t *Tracer) Start(parent *Span, kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		t: t,
		rec: SpanRecord{
			TraceID:   t.traceID,
			SpanID:    fmt.Sprintf("%016x", t.nextID.Add(1)),
			Kind:      kind,
			Name:      name,
			StartNano: time.Now().UnixNano(),
		},
	}
	if parent != nil {
		s.rec.ParentID = parent.rec.SpanID
	}
	return s
}

// Spans returns how many spans have completed.
func (t *Tracer) Spans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Close flushes the NDJSON stream and returns the first write error
// encountered over the tracer's lifetime.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw != nil {
		if err := t.bw.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// end records a completed span: stream it, retain it, and feed the
// phase-duration histogram when it is a phase span.
func (t *Tracer) end(rec *SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans++
	if t.enc != nil {
		if err := t.enc.Encode(rec); err != nil {
			if t.err == nil {
				t.err = err
			}
		} else if err := t.bw.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	if t.opts.Retain {
		t.retained = append(t.retained, *rec)
	}
	if t.phaseHis != nil && rec.Kind == "phase" {
		h, ok := t.phaseHis[rec.Name]
		if !ok {
			h = t.opts.Metrics.Histogram(PhaseMetricName(rec.Name), phaseBounds)
			t.phaseHis[rec.Name] = h
		}
		h.Observe(float64(rec.EndNano-rec.StartNano) / 1e9)
	}
}

// PhaseMetricName returns the phase-duration histogram name for a phase
// span name, e.g. "warm-start" → "campaign_phase_warm_start_seconds".
func PhaseMetricName(phase string) string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, phase)
	return "campaign_phase_" + sanitized + "_seconds"
}

// Span is one in-flight span. A span is owned by one goroutine until
// End; a nil *Span ignores every call.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// SetAttr records one attribute (int-like values are normalized to
// int64 so in-process readers and JSON round-trips agree on Int()).
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	switch n := v.(type) {
	case int:
		v = int64(n)
	case int32:
		v = int64(n)
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]any, 8)
	}
	s.rec.Attrs[key] = v
}

// Child opens a sub-span (nil-safe on both the span and its tracer).
func (s *Span) Child(kind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(s, kind, name)
}

// End completes the span and emits it. End is idempotent only in the
// trivial sense that callers must call it exactly once; phase helpers
// in the campaign guarantee that.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.EndNano = time.Now().UnixNano()
	s.t.end(&s.rec)
}

// ReadSpans parses an NDJSON span stream, tolerating the torn trailing
// line a killed process leaves behind (same contract as the checkpoint
// and run-trace readers).
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	return trace.DecodeTolerant[SpanRecord](r)
}

// otlp* mirror the OTLP/JSON wire shape (trace service ExportRequest):
// resourceSpans → scopeSpans → spans, 32-hex trace IDs, 16-hex span
// IDs, stringified unix-nano timestamps and typed attribute values.
type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"` // 1 = SPAN_KIND_INTERNAL
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	String *string  `json:"stringValue,omitempty"`
	Int    *string  `json:"intValue,omitempty"` // int64 as string, per OTLP/JSON
	Double *float64 `json:"doubleValue,omitempty"`
	Bool   *bool    `json:"boolValue,omitempty"`
}

func otlpVal(v any) otlpValue {
	switch n := v.(type) {
	case string:
		return otlpValue{String: &n}
	case bool:
		return otlpValue{Bool: &n}
	case int64:
		s := fmt.Sprintf("%d", n)
		return otlpValue{Int: &s}
	case float64:
		return otlpValue{Double: &n}
	default:
		s := fmt.Sprintf("%v", v)
		return otlpValue{String: &s}
	}
}

func otlpAttrs(attrs map[string]any) []otlpKeyValue {
	if len(attrs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]otlpKeyValue, 0, len(keys))
	for _, k := range keys {
		out = append(out, otlpKeyValue{Key: k, Value: otlpVal(attrs[k])})
	}
	return out
}

// WriteOTLP dumps every retained span as one OTLP/JSON export object.
// Requires Options.Retain; without it the dump is empty.
func (t *Tracer) WriteOTLP(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := append([]SpanRecord(nil), t.retained...)
	t.mu.Unlock()

	svc := t.opts.Service
	spans := make([]otlpSpan, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		attrs := make(map[string]any, len(r.Attrs)+1)
		for k, v := range r.Attrs {
			attrs[k] = v
		}
		attrs["nocalert.kind"] = r.Kind
		spans = append(spans, otlpSpan{
			TraceID:           r.TraceID,
			SpanID:            r.SpanID,
			ParentSpanID:      r.ParentID,
			Name:              r.Name,
			Kind:              1,
			StartTimeUnixNano: fmt.Sprintf("%d", r.StartNano),
			EndTimeUnixNano:   fmt.Sprintf("%d", r.EndNano),
			Attributes:        otlpAttrs(attrs),
		})
	}
	exp := otlpExport{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			{Key: "service.name", Value: otlpVal(svc)},
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "nocalert/internal/obs"},
			Spans: spans,
		}},
	}}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&exp)
}
