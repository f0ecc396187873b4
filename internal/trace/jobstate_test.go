package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJobStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	js := &JobState{
		ID:          "j01",
		Spec:        json.RawMessage(`{"mesh_w":4,"mesh_h":4}`),
		SpecHash:    "deadbeefdeadbeef",
		Status:      JobQueued,
		SubmittedAt: "2026-08-05T10:00:00Z",
	}
	if err := WriteJobState(dir, js); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobState(JobStatePath(dir, "j01"))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != js.ID || got.SpecHash != js.SpecHash || got.Status != JobQueued ||
		got.SubmittedAt != js.SubmittedAt || string(got.Spec) != string(js.Spec) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, js)
	}
	if got.Version != JobStateVersion || got.Kind != "job" {
		t.Fatalf("defaults not filled: kind=%q version=%d", got.Kind, got.Version)
	}
	// Rewriting with a terminal status replaces the manifest atomically.
	js.Status = JobDone
	js.FinishedAt = "2026-08-05T10:05:00Z"
	if err := WriteJobState(dir, js); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJobState(JobStatePath(dir, "j01"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != JobDone || got.FinishedAt == "" {
		t.Fatalf("terminal rewrite not visible: %+v", got)
	}
	// No temp residue may survive a successful write.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestJobStateRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"truncated.job.json":  `{"kind":"job","version":1,"id":"x","status":"queu`,
		"wrongkind.job.json":  `{"kind":"manifest","version":1,"id":"x","status":"queued"}`,
		"badstatus.job.json":  `{"kind":"job","version":1,"id":"x","status":"paused"}`,
		"noid.job.json":       `{"kind":"job","version":1,"status":"queued"}`,
		"badversion.job.json": `{"kind":"job","version":99,"id":"x","status":"queued"}`,
	}
	for name, body := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJobState(p); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
		os.Remove(p)
	}
}

func TestListJobStatesOrdersAndSkips(t *testing.T) {
	dir := t.TempDir()
	for _, js := range []*JobState{
		{ID: "jb", Status: JobQueued, SubmittedAt: "2026-08-05T10:02:00Z"},
		{ID: "ja", Status: JobDone, SubmittedAt: "2026-08-05T10:01:00Z"},
		{ID: "jc", Status: JobQueued, SubmittedAt: "2026-08-05T10:01:00Z"},
	} {
		if err := WriteJobState(dir, js); err != nil {
			t.Fatal(err)
		}
	}
	// Non-manifest files in the state dir (checkpoints, reports) are
	// not job states and must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "ja.ckpt.ndjson"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ListJobStates(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, js := range got {
		ids = append(ids, js.ID)
	}
	if want := "ja,jc,jb"; strings.Join(ids, ",") != want {
		t.Fatalf("order = %v, want %s", ids, want)
	}
	// A mismatch between file name and embedded ID is corruption.
	if err := os.WriteFile(filepath.Join(dir, "liar.job.json"),
		[]byte(`{"kind":"job","version":1,"id":"other","status":"queued"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListJobStates(dir); err == nil {
		t.Fatal("ID/file-name mismatch accepted")
	}
}

func TestListJobStatesMissingDir(t *testing.T) {
	got, err := ListJobStates(filepath.Join(t.TempDir(), "nope"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: got %v, %v; want nil, nil", got, err)
	}
}
