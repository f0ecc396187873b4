package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.TraceID() != "" {
		t.Error("nil tracer has a trace ID")
	}
	if tr.Sampled(0) {
		t.Error("nil tracer samples runs")
	}
	s := tr.Start(nil, "campaign", "x")
	if s != nil {
		t.Fatal("nil tracer returned a non-nil span")
	}
	// Every Span method must tolerate nil.
	s.SetAttr("k", 1)
	s.End()
	c := s.Child("phase", "y")
	if c != nil {
		t.Error("nil span produced a non-nil child")
	}
	if tr.Spans() != 0 {
		t.Error("nil tracer counted spans")
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if err := tr.WriteOTLP(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteOTLP: %v", err)
	}
}

func TestSpanStreamHierarchyAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf})
	if len(tr.TraceID()) != 32 {
		t.Fatalf("trace ID %q, want 32 hex chars", tr.TraceID())
	}

	root := tr.Start(nil, "campaign", "campaign")
	run := root.Child("run", "run[3]")
	run.SetAttr("inject_cycle", 300)
	run.SetAttr("cycles_simulated", int64(120))
	run.SetAttr("verdict", "TP")
	phase := run.Child("phase", "drain")
	phase.End()
	run.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tr.Spans() != 3 {
		t.Errorf("Spans() = %d, want 3", tr.Spans())
	}

	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Completion order: phase, run, campaign.
	byKind := map[string]SpanRecord{}
	for _, r := range recs {
		byKind[r.Kind] = r
		if r.TraceID != tr.TraceID() {
			t.Errorf("span %s carries trace ID %q, want %q", r.SpanID, r.TraceID, tr.TraceID())
		}
		if r.EndNano < r.StartNano {
			t.Errorf("span %s ends before it starts", r.SpanID)
		}
	}
	if byKind["run"].ParentID != byKind["campaign"].SpanID {
		t.Error("run span is not parented to the campaign span")
	}
	if byKind["phase"].ParentID != byKind["run"].SpanID {
		t.Error("phase span is not parented to the run span")
	}
	if v, ok := byKind["run"].Int("inject_cycle"); !ok || v != 300 {
		t.Errorf("inject_cycle = %d,%v, want 300,true", v, ok)
	}
	if v, ok := byKind["run"].Int("cycles_simulated"); !ok || v != 120 {
		t.Errorf("cycles_simulated = %d,%v, want 120,true", v, ok)
	}
	if byKind["run"].Attrs["verdict"] != "TP" {
		t.Errorf("verdict = %v, want TP", byKind["run"].Attrs["verdict"])
	}
	if byKind["run"].Duration() < 0 {
		t.Error("negative run duration")
	}
}

func TestSampling(t *testing.T) {
	tr := New(Options{SampleEvery: 4, Retain: true})
	wantSampled := map[int]bool{0: true, 1: false, 3: false, 4: true, 8: true, 9: false}
	for i, want := range wantSampled {
		if got := tr.Sampled(i); got != want {
			t.Errorf("Sampled(%d) = %v, want %v", i, got, want)
		}
	}
	if tr.Sampled(-1) {
		t.Error("negative run index sampled")
	}
	one := New(Options{Retain: true}) // SampleEvery < 1 → every run
	for i := 0; i < 5; i++ {
		if !one.Sampled(i) {
			t.Errorf("default tracer dropped run %d", i)
		}
	}
}

func TestReadSpansToleratesTornTail(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf})
	for i := 0; i < 3; i++ {
		tr.Start(nil, "run", "run").End()
	}
	tr.Close()
	whole := buf.String()
	torn := whole[:len(whole)-25] // cut mid-record, no trailing newline
	recs, err := ReadSpans(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("ReadSpans on torn stream: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records from torn stream, want 2", len(recs))
	}
}

func TestWriteOTLPShape(t *testing.T) {
	tr := New(Options{Retain: true, Service: "nocalertd"})
	s := tr.Start(nil, "job", "job")
	s.SetAttr("faults", 96)
	s.SetAttr("rate", 0.12)
	s.SetAttr("drained", true)
	s.SetAttr("spec", "4x4")
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteOTLP(&buf); err != nil {
		t.Fatalf("WriteOTLP: %v", err)
	}
	var exp struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Scope struct {
					Name string `json:"name"`
				} `json:"scope"`
				Spans []struct {
					TraceID           string `json:"traceId"`
					SpanID            string `json:"spanId"`
					Name              string `json:"name"`
					Kind              int    `json:"kind"`
					StartTimeUnixNano string `json:"startTimeUnixNano"`
					Attributes        []struct {
						Key   string         `json:"key"`
						Value map[string]any `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exp); err != nil {
		t.Fatalf("OTLP dump is not valid JSON: %v", err)
	}
	if len(exp.ResourceSpans) != 1 {
		t.Fatalf("resourceSpans = %d, want 1", len(exp.ResourceSpans))
	}
	rs := exp.ResourceSpans[0]
	if rs.Resource.Attributes[0].Key != "service.name" ||
		rs.Resource.Attributes[0].Value.StringValue != "nocalertd" {
		t.Errorf("resource attrs = %+v, want service.name=nocalertd", rs.Resource.Attributes)
	}
	if len(rs.ScopeSpans) != 1 || len(rs.ScopeSpans[0].Spans) != 1 {
		t.Fatalf("want one scope with one span, got %+v", rs.ScopeSpans)
	}
	sp := rs.ScopeSpans[0].Spans[0]
	if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 {
		t.Errorf("ID lengths: trace %d span %d, want 32/16", len(sp.TraceID), len(sp.SpanID))
	}
	if sp.Kind != 1 {
		t.Errorf("span kind = %d, want 1 (INTERNAL)", sp.Kind)
	}
	if sp.StartTimeUnixNano == "" {
		t.Error("startTimeUnixNano empty — must be a stringified nano timestamp")
	}
	// Attributes sorted by key; intValue stringified; nocalert.kind added.
	want := map[string]string{
		"drained": "boolValue", "faults": "intValue", "nocalert.kind": "stringValue",
		"rate": "doubleValue", "spec": "stringValue",
	}
	if len(sp.Attributes) != len(want) {
		t.Fatalf("attrs = %d, want %d", len(sp.Attributes), len(want))
	}
	var prev string
	for _, a := range sp.Attributes {
		if a.Key < prev {
			t.Errorf("attributes not sorted: %q after %q", a.Key, prev)
		}
		prev = a.Key
		if _, ok := a.Value[want[a.Key]]; !ok {
			t.Errorf("attr %q missing %s: %v", a.Key, want[a.Key], a.Value)
		}
	}
	for _, a := range sp.Attributes {
		if a.Key == "faults" {
			if v, ok := a.Value["intValue"].(string); !ok || v != "96" {
				t.Errorf("intValue = %v, want the string \"96\"", a.Value["intValue"])
			}
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Retain: true})
	root := tr.Start(nil, "campaign", "campaign")
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Child("run", "run")
			s.SetAttr("index", i)
			s.Child("phase", "drain").End()
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(recs) != 2*n+1 {
		t.Fatalf("got %d spans, want %d", len(recs), 2*n+1)
	}
	ids := map[string]bool{}
	for _, r := range recs {
		if ids[r.SpanID] {
			t.Fatalf("duplicate span ID %s", r.SpanID)
		}
		ids[r.SpanID] = true
	}
}
