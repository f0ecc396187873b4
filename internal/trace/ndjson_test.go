// Torn-write coverage for the tolerant NDJSON readers, exercised
// through the span stream that internal/obs layers on DecodeTolerant.
// External test package: obs imports trace, so these tests live in
// trace_test to close the loop without an import cycle.
package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocalert/internal/obs"
	"nocalert/internal/trace"
)

// writeSpanStream emits a realistic span hierarchy (campaign → run →
// phase with cycle-accurate attributes) to a file and returns the
// parsed reference records.
func writeSpanStream(t *testing.T, path string, runs int) []obs.SpanRecord {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{Writer: f})
	root := tr.Start(nil, "campaign", "campaign")
	for i := 0; i < runs; i++ {
		run := root.Child("run", "run")
		run.SetAttr("run_index", i)
		run.SetAttr("inject_cycle", 300)
		run.SetAttr("cycles_simulated", 420+i)
		run.SetAttr("verdict", "TP")
		ph := run.Child("phase", "drain")
		ph.End()
		run.End()
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*runs+1 {
		t.Fatalf("reference stream has %d spans, want %d", len(recs), 2*runs+1)
	}
	return recs
}

// TestSpanStreamTornAtEveryByte truncates the span NDJSON file at every
// byte offset — every possible hard-kill point — and checks the reader
// returns exactly the complete prefix records with no error: the same
// contract TestCheckpointResumeAfterTornTail pins for run checkpoints.
func TestSpanStreamTornAtEveryByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	ref := writeSpanStream(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		recs, err := obs.ReadSpans(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at byte %d/%d: unexpected error %v", cut, len(data), err)
		}
		// A cut mid-record drops only the torn line; a cut exactly at a
		// record's closing brace (newline not yet written) still parses.
		whole := bytes.Count(data[:cut], []byte{'\n'})
		if len(recs) != whole && len(recs) != whole+1 {
			t.Fatalf("cut at byte %d: got %d records, want %d or %d",
				cut, len(recs), whole, whole+1)
		}
		for i, r := range recs {
			if !reflect.DeepEqual(r, ref[i]) {
				t.Fatalf("cut at byte %d: record %d diverges from reference:\n got %+v\nwant %+v",
					cut, i, r, ref[i])
			}
		}
	}
}

// TestSpanStreamTornAppend mirrors the checkpoint harness's kill
// simulation: a partial record appended with no trailing newline must
// not cost any completed span.
func TestSpanStreamTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	ref := writeSpanStream(t, path, 2)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trace_id":"deadbeef","span_id":"00000000000000ff","kind":"run","attrs":{"inject`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSpans after torn append: %v", err)
	}
	if !reflect.DeepEqual(recs, ref) {
		t.Fatalf("torn append changed the recovered records:\n got %d spans\nwant %d", len(recs), len(ref))
	}
}

// TestSpanStreamMidFileCorruptionErrors pins the other half of the
// contract: damage that is NOT a torn tail (a corrupt line with intact
// records after it) must surface as an error, not silent data loss.
func TestSpanStreamMidFileCorruptionErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	writeSpanStream(t, path, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines) < 3 {
		t.Fatalf("need at least 3 lines, have %d", len(lines))
	}
	lines[1] = []byte("{\"trace_id\": CORRUPT\n")
	if _, err := obs.ReadSpans(bytes.NewReader(bytes.Join(lines, nil))); err == nil {
		t.Fatal("mid-file corruption read back with no error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the corrupt line", err)
	}
}

// TestDecodeTolerantEdgeCases covers the generic reader directly:
// empty input, blank-line padding, and a lone torn line.
func TestDecodeTolerantEdgeCases(t *testing.T) {
	type rec struct {
		N int `json:"n"`
	}
	got, err := trace.DecodeTolerant[rec](strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v, %d records", err, len(got))
	}
	got, err = trace.DecodeTolerant[rec](strings.NewReader("{\"n\":1}\n\n{\"n\":2}\n"))
	if err != nil || len(got) != 2 {
		t.Errorf("blank-line padding: %v, %d records (want 2)", err, len(got))
	}
	got, err = trace.DecodeTolerant[rec](strings.NewReader("{\"n\":"))
	if err != nil || len(got) != 0 {
		t.Errorf("lone torn line: %v, %d records (want 0, nil)", err, len(got))
	}
}

// TestReadRunRecordsTruncated: a checkpoint body torn by a hard kill
// mid-append decodes to the complete run-record prefix without an error.
func TestReadRunRecordsTruncated(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(&trace.RunRecord{Index: i, Outcome: "TN"}); err != nil {
			t.Fatal(err)
		}
	}
	torn := buf.String() + `{"index":3,"nocalert_ou`
	got, err := trace.DecodeTolerant[trace.RunRecord](strings.NewReader(torn))
	if err != nil {
		t.Fatalf("truncated records returned error %v, want nil", err)
	}
	if len(got) != 3 || got[2].Index != 2 {
		t.Fatalf("read %d records from truncated input, want indices 0..2: %+v", len(got), got)
	}
}
