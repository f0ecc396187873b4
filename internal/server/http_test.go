package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/trace"
)

// testSpec is a small but real campaign: the golden 4×4 workload with
// a reduced fault sample so API tests stay fast.
func testSpec(faults int) campaign.Spec {
	return campaign.Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     faults,
	}
}

// Submit enqueues a new anonymous whole-campaign job.
func (s *Server) Submit(spec campaign.Spec) (*Job, error) {
	j, _, err := s.SubmitJob(spec, SubmitOptions{})
	return j, err
}

func specBody(t *testing.T, spec campaign.Spec) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// queuedServer builds a server whose worker pool is NOT started, so
// submitted jobs stay queued deterministically.
func queuedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func decodeView(t *testing.T, r io.Reader) View {
	t.Helper()
	var v View
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobAPI is the table-driven surface check: submission validation,
// status, cancellation, backpressure and not-found behaviour, all
// against a server whose queue never drains.
func TestJobAPI(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postTo := func(query string, body io.Reader) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	post := func(body io.Reader) *http.Response {
		t.Helper()
		return postTo("", body)
	}

	// Fill the queue: two accepted submissions.
	var ids []string
	for i := 0; i < 2; i++ {
		resp := post(specBody(t, testSpec(24)))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/j") {
			t.Fatalf("submit %d: Location %q", i, loc)
		}
		v := decodeView(t, resp.Body)
		resp.Body.Close()
		if v.Status != StatusQueued || v.ID == "" {
			t.Fatalf("submit %d: view %+v", i, v)
		}
		ids = append(ids, v.ID)
	}

	t.Run("rejections", func(t *testing.T) {
		overBudget := map[string]func(*campaign.Spec){
			"65536x65536 mesh":     func(s *campaign.Spec) { s.MeshW, s.MeshH = 65536, 65536 },
			"billion-cycle window": func(s *campaign.Spec) { s.PostInjectRun = 1e9 },
			"1000 injection cycles": func(s *campaign.Spec) {
				for c := int64(0); c < 1000; c++ {
					s.InjectCycles = append(s.InjectCycles, c)
				}
			},
		}
		huge := func(name string) string {
			s := testSpec(24)
			overBudget[name](&s)
			return mustJSON(t, s)
		}
		cases := []struct {
			name  string
			query string
			body  string
			want  int
		}{
			{"queue full", "", mustJSON(t, testSpec(24)), http.StatusTooManyRequests},
			{"invalid mesh", "", `{"mesh_w":0,"mesh_h":4,"vcs":4}`, http.StatusBadRequest},
			// No VC count: the default is filled in before the mesh is
			// checked, and must not be looked up for a mesh that cannot be.
			{"zero-wide mesh, default VCs", "", `{"mesh_w":0,"mesh_h":4}`, http.StatusBadRequest},
			{"negative mesh, default VCs", "", `{"mesh_w":-3,"mesh_h":4}`, http.StatusBadRequest},
			{"negative faults", "", mustJSON(t, func() campaign.Spec { s := testSpec(24); s.NumFaults = -1; return s }()), http.StatusBadRequest},
			{"9 VCs", "", mustJSON(t, func() campaign.Spec { s := testSpec(24); s.VCs = 9; return s }()), http.StatusBadRequest},
			{"33 VCs", "", mustJSON(t, func() campaign.Spec { s := testSpec(24); s.VCs = 33; return s }()), http.StatusBadRequest},
			{"unknown field", "", `{"mesh_w":4,"mesh_h":4,"vcs":4,"typo_field":1}`, http.StatusBadRequest},
			{"not JSON", "", `mesh=4x4`, http.StatusBadRequest},
			// Specs no process could plan: refused, never persisted to crash
			// every restart.
			{"65536x65536 mesh", "", `{"mesh_w":65536,"mesh_h":65536}`, http.StatusBadRequest},
			{"billion-cycle window", "", huge("billion-cycle window"), http.StatusBadRequest},
			{"1000 injection cycles", "", huge("1000 injection cycles"), http.StatusBadRequest},
			// Shard coordinates that name no shard are not a whole campaign.
			{"shard 3 of 1", "?shard=3&shards=1", mustJSON(t, testSpec(24)), http.StatusBadRequest},
			{"-2 shards", "?shard=0&shards=-2", mustJSON(t, testSpec(24)), http.StatusBadRequest},
			{"shard -1 of 2", "?shard=-1&shards=2", mustJSON(t, testSpec(24)), http.StatusBadRequest},
			{"shard 2 of 2", "?shard=2&shards=2", mustJSON(t, testSpec(24)), http.StatusBadRequest},
		}
		for _, c := range cases {
			resp := postTo(c.query, strings.NewReader(c.body))
			if resp.StatusCode != c.want {
				t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
			}
			if c.want == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("%s: error body missing (%v)", c.name, err)
			}
			resp.Body.Close()
		}
		// A VC count the router refuses is the submitter's error, not a job
		// that fails on its first run.
		for _, vcs := range []int{9, 33} {
			spec := testSpec(24)
			spec.VCs = vcs
			if j, _, err := s.SubmitJob(spec, SubmitOptions{}); err == nil || !strings.Contains(err.Error(), "VCs must be in") {
				t.Errorf("SubmitJob with %d VCs: job %v, error %v", vcs, j, err)
			}
		}
		// Those specs fail on the budget, not on their JSON.
		for name := range overBudget {
			spec := testSpec(24)
			overBudget[name](&spec)
			if j, _, err := s.SubmitJob(spec, SubmitOptions{}); err == nil || !strings.Contains(err.Error(), "over the spec budget") {
				t.Errorf("SubmitJob of a %s: job %v, error %v", name, j, err)
			}
		}
		for _, o := range []SubmitOptions{{Shard: 3, Shards: 1}, {Shards: -2}, {Shard: -1, Shards: 2}, {Shard: 1}} {
			if j, _, err := s.SubmitJob(testSpec(24), o); err == nil || !strings.Contains(err.Error(), "shard") {
				t.Errorf("SubmitJob as shard %d/%d: job %v, error %v", o.Shard, o.Shards, j, err)
			}
		}
		// A rejected submission must leave no state residue.
		if rej := s.reg.Counter(MetricJobsRejected).Value(); rej != 1 {
			t.Errorf("rejected counter = %d, want 1", rej)
		}
	})

	t.Run("status and list", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp.Body)
		resp.Body.Close()
		if v.ID != ids[0] || v.Status != StatusQueued || v.Total != 24 {
			t.Fatalf("status view %+v", v)
		}
		resp, err = http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []View `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[0] || list.Jobs[1].ID != ids[1] {
			t.Fatalf("list = %+v, want submission order %v", list.Jobs, ids)
		}
	})

	t.Run("not found", func(t *testing.T) {
		for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/report", "/v1/jobs/nope/events"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
			}
		}
	})

	t.Run("report gated until done", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/report")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("report on queued job: status %d, want 409", resp.StatusCode)
		}
	})

	t.Run("cancel queued then conflict", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ids[0], nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || v.Status != StatusCanceled {
			t.Fatalf("cancel: status %d view %+v", resp.StatusCode, v)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("double cancel: status %d, want 409", resp.StatusCode)
		}
	})

	t.Run("terminal job events stream closes after final status", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		var events []Event
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		// Canceled job: one snapshot, one terminal status, then EOF.
		if len(events) != 2 || events[0].Type != "snapshot" || events[1].Type != "status" ||
			events[1].Status != StatusCanceled {
			t.Fatalf("terminal stream = %+v", events)
		}
	})

	t.Run("sse framing", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+ids[0]+"/events", nil)
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type %q", ct)
		}
		if !bytes.HasPrefix(body, []byte("data: {")) {
			t.Fatalf("SSE body %q", body)
		}
	})

	t.Run("health and metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h map[string]any
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h["status"] != "ok" {
			t.Fatalf("healthz %v", h)
		}
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if _, err := metrics.ValidateOpenMetrics(bytes.NewReader(text)); err != nil {
			t.Fatalf("/metrics is not valid OpenMetrics: %v\n%s", err, text)
		}
		if !strings.Contains(string(text), MetricJobsSubmitted) {
			t.Fatalf("/metrics missing %s:\n%s", MetricJobsSubmitted, text)
		}
		// /metrics is the one registry surface: the pages that
		// duplicated it are gone.
		for _, path := range []string{"/metricsz", "/debug/vars"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
			}
		}
	})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamTruncation pins the slow-consumer contract: the hub drops
// events rather than stalling the campaign, and the gap surfaces in
// the next delivered event's Dropped count.
func TestStreamTruncation(t *testing.T) {
	j := newJob("jtest", testSpec(8), time.Now())
	ch, unsubscribe := j.subscribe(1)
	defer unsubscribe()

	j.mu.Lock()
	for i := 1; i <= 10; i++ {
		j.publishLocked(Event{Type: "progress", Job: j.ID, Done: i, Total: 10})
	}
	j.mu.Unlock()

	first := <-ch
	if first.Done != 1 || first.Dropped != 0 {
		t.Fatalf("first event = %+v, want done=1 dropped=0", first)
	}
	// Events 2..10 overflowed the buffer while it was full.
	j.mu.Lock()
	j.publishLocked(Event{Type: "progress", Job: j.ID, Done: 11, Total: 12})
	j.mu.Unlock()
	next := <-ch
	if next.Done != 11 || next.Dropped != 9 {
		t.Fatalf("post-truncation event = %+v, want done=11 dropped=9", next)
	}
	// A delivered event resets the gap counter.
	j.mu.Lock()
	j.publishLocked(Event{Type: "progress", Job: j.ID, Done: 12, Total: 12})
	j.mu.Unlock()
	if ev := <-ch; ev.Dropped != 0 {
		t.Fatalf("gap counter not reset: %+v", ev)
	}
}

// TestSubmitPersistsBeforeResponse: the job manifest is durable by the
// time Submit returns, which is what lets a daemon killed right after
// the 201 still know the job on restart.
func TestSubmitPersistsBeforeResponse(t *testing.T) {
	dir := t.TempDir()
	s := queuedServer(t, Config{Dir: dir, QueueSize: 4})
	j, err := s.Submit(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	// A second server over the same dir sees the queued job.
	s2 := queuedServer(t, Config{Dir: dir, QueueSize: 4})
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered from disk", j.ID)
	}
	if v := j2.view(); v.Status != StatusQueued || v.SpecHash != j.SpecHash {
		t.Fatalf("recovered view %+v", v)
	}
	if rec := s2.reg.Counter(MetricJobsRecovered).Value(); rec != 1 {
		t.Fatalf("recovered counter = %d, want 1", rec)
	}
}

// TestRequestTimeoutApplied: non-streaming handlers are wrapped in a
// TimeoutHandler (probed structurally: the handler responds within the
// budget and the events endpoint stays streamable).
func TestRequestTimeoutApplied(t *testing.T) {
	s := queuedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Server, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v := j.view(); v.Status.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	panic("unreachable")
}

// TestRunToCompletion drives one job end to end through the public
// handler and checks the report is exactly the unsharded engine's
// WriteJSON bytes for the same spec.
func TestRunToCompletion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec(24)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", specBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	v := decodeView(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	final := waitJob(t, s, v.ID, 2*time.Minute)
	if final.Status != StatusDone {
		t.Fatalf("job finished as %s (%s)", final.Status, final.Error)
	}
	if final.Done != final.Total || final.Executed != final.Total {
		t.Fatalf("progress accounting off: %+v", final)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d", resp.StatusCode)
	}

	opts := spec.Options()
	opts.Faults = spec.Universe()
	rep, err := campaign.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon report (%d bytes) differs from unsharded engine output (%d bytes)", len(got), want.Len())
	}
	if done := s.reg.Counter(MetricJobsDone).Value(); done != 1 {
		t.Fatalf("done counter = %d", done)
	}
}

// TestRestartResume is the in-process half of the durability contract
// (the e2e suite does it again with a real SIGKILL): interrupt a
// running campaign by draining the daemon, restart over the same state
// dir, and require the resumed job's final report to be byte-identical
// to an uninterrupted run's — with the checkpoint actually resumed,
// not re-executed from scratch.
func TestRestartResume(t *testing.T) {
	spec := testSpec(32)

	// Uninterrupted reference over its own state dir.
	refDir := t.TempDir()
	ref, err := New(Config{Dir: refDir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, ref, rj.ID, 2*time.Minute); v.Status != StatusDone {
		t.Fatalf("reference job: %s (%s)", v.Status, v.Error)
	}
	wantReport := readFileT(t, ref.ReportPath(rj.ID))
	ref.Stop(context.Background())

	// Interrupted run: one campaign worker, held on the gate while it
	// ends its fourth run, three runs into the job; the drain is issued
	// while it is held, so the job cannot finish first.
	dir := t.TempDir()
	gate := &runGate{after: 3, held: make(chan struct{}), release: make(chan struct{})}
	s1, err := New(Config{Dir: dir, QueueSize: 4, CampaignWorkers: 1, Tracer: obs.New(obs.Options{Writer: gate})})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.held:
	case <-time.After(2 * time.Minute):
		t.Fatal("the job never reached its fourth run")
	}
	if v := j.view(); v.Status != StatusRunning || v.Done != 3 {
		t.Fatalf("held job is %s at %d/%d, want running at 3", v.Status, v.Done, v.Total)
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		stopped <- s1.Stop(ctx)
	}()
	<-s1.baseCtx.Done() // Stop has canceled every running job
	close(gate.release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	interrupted := j.view()
	if interrupted.Status != StatusQueued {
		t.Fatalf("drained job is %s, want queued for resume", interrupted.Status)
	}
	if interrupted.Done == 0 || interrupted.Done >= interrupted.Total {
		t.Fatalf("interrupt window missed: %d/%d", interrupted.Done, interrupted.Total)
	}

	// Restart over the same dir: the job must be recovered, resumed
	// from its checkpoint and completed.
	s2, err := New(Config{Dir: dir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop(context.Background())
	final := waitJob(t, s2, j.ID, 2*time.Minute)
	if final.Status != StatusDone {
		t.Fatalf("resumed job: %s (%s)", final.Status, final.Error)
	}
	if final.Resumed == 0 {
		t.Fatal("resumed counter is 0 — the checkpoint was not used")
	}
	if final.Resumed+final.Executed != final.Total {
		t.Fatalf("resumed %d + executed %d != total %d", final.Resumed, final.Executed, final.Total)
	}
	if final.Verified == 0 {
		t.Fatal("no resumed runs were re-executed for verification")
	}
	got := readFileT(t, s2.ReportPath(j.ID))
	if !bytes.Equal(got, wantReport) {
		t.Fatalf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantReport))
	}
}

// runGate is a span sink that blocks the write of run span after+1 until
// the test closes release: with one campaign worker, the job has recorded
// its first after runs and not the next one. The tracer serializes its
// writes.
type runGate struct {
	after         int
	runs          int
	held, release chan struct{}
}

func (g *runGate) Write(p []byte) (int, error) {
	if n := bytes.Count(p, []byte(`"kind":"run"`)); n > 0 && g.runs <= g.after {
		if g.runs += n; g.runs > g.after {
			close(g.held)
			<-g.release
		}
	}
	return len(p), nil
}

// TestRecoverRebuildsMissingReport covers the crash window between
// checkpoint finalize and report write: a manifest saying done with no
// report on disk re-enqueues, and the rebuild is pure resume.
func TestRecoverRebuildsMissingReport(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(testSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, s1, j.ID, 2*time.Minute); v.Status != StatusDone {
		t.Fatalf("job: %s (%s)", v.Status, v.Error)
	}
	want := readFileT(t, s1.ReportPath(j.ID))
	s1.Stop(context.Background())

	if err := os.Remove(s1.ReportPath(j.ID)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Dir: dir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop(context.Background())
	final := waitJob(t, s2, j.ID, 2*time.Minute)
	if final.Status != StatusDone {
		t.Fatalf("rebuild: %s (%s)", final.Status, final.Error)
	}
	if final.Resumed != final.Total {
		t.Fatalf("rebuild re-executed runs: resumed %d of %d", final.Resumed, final.Total)
	}
	if got := readFileT(t, s2.ReportPath(j.ID)); !bytes.Equal(got, want) {
		t.Fatal("rebuilt report differs")
	}
}

func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, QueueSize: 4, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(context.Background())
	// Enough runs that the rest outlast a test goroutine descheduled on a
	// loaded host between seeing progress and cancelling: at 32 the job
	// could finish in that gap.
	j, err := s.Submit(testSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for j.view().Done < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no progress")
		}
		if v := j.view(); v.Status.Terminal() {
			t.Fatalf("finished before cancel: %s", v.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, s, j.ID, time.Minute)
	if final.Status != StatusCanceled {
		t.Fatalf("canceled job ended as %s", final.Status)
	}
	// The durable state must be canceled too: a restart must not
	// resurrect the job.
	s2 := queuedServer(t, Config{Dir: dir, QueueSize: 4})
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatal("canceled job lost")
	}
	if v := j2.view(); v.Status != StatusCanceled {
		t.Fatalf("restart sees %s, want canceled", v.Status)
	}
}

// watchTerminal follows job j from both sides a client sees it from —
// view(), polled without pause, and the event stream — and the moment
// either shows a terminal status reads the job-state file, which must
// hold that status already: a client that sees the job over and restarts
// the daemon must find it over. The channel gets the status view() showed
// once both sides have seen it.
func watchTerminal(t *testing.T, dir string, j *Job) <-chan Status {
	t.Helper()
	events, unsubscribe := j.subscribe(1 << 14)
	durable := func(side string, st Status) {
		js, err := trace.ReadJobState(trace.JobStatePath(dir, j.ID))
		if err != nil {
			t.Errorf("job %s: %s shows %s, the job-state file: %v", j.ID, side, st, err)
		} else if Status(js.Status) != st {
			t.Errorf("job %s: %s shows %s while the job-state file holds %s", j.ID, side, st, js.Status)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer unsubscribe()
		for ev := range events {
			if ev.Status.Terminal() {
				durable("the event stream", ev.Status)
				return
			}
		}
		t.Errorf("job %s: the event stream ended without a terminal status", j.ID)
	}()
	out := make(chan Status, 1)
	go func() {
		deadline := time.Now().Add(2 * time.Minute)
		v := j.view()
		for ; !v.Status.Terminal(); v = j.view() {
			if time.Now().After(deadline) {
				t.Errorf("job %s: not over within two minutes", j.ID)
				break
			}
			runtime.Gosched()
		}
		if v.Status.Terminal() {
			durable("view()", v.Status)
		}
		wg.Wait()
		out <- v.Status
	}()
	return out
}

// TestTerminalStatusIsDurableWhenSeen holds a job's terminal status to
// being on disk before it is visible, for each way a job ends: canceled
// while queued, canceled while running, and run to done. One daemon
// worker runs the three jobs in turn.
func TestTerminalStatusIsDurableWhenSeen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, QueueSize: 4, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(context.Background())
	var jobs [3]*Job // running, then queued behind it, then run to done
	for i, faults := range []int{512, 16, 8} {
		if jobs[i], err = s.Submit(testSpec(faults)); err != nil {
			t.Fatal(err)
		}
	}
	running, queued, done := jobs[0], jobs[1], jobs[2]
	var seen [3]<-chan Status
	for i, j := range jobs {
		seen[i] = watchTerminal(t, dir, j)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for running.view().Done < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Status{StatusCanceled, StatusCanceled, StatusDone} {
		if got := <-seen[i]; got != want {
			t.Errorf("job %s ended %s, want %s", jobs[i].ID, got, want)
		}
	}
	if v := done.view(); v.Done != v.Total {
		t.Errorf("done job ran %d of %d", v.Done, v.Total)
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardsShareGoldenArtefact runs two shards of one campaign on one
// daemon: the second must take the golden reference from the server's
// cache instead of building it again.
func TestShardsShareGoldenArtefact(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop(context.Background())
	for shard := 0; shard < 2; shard++ {
		j, _, err := s.SubmitJob(testSpec(24), SubmitOptions{Shard: shard, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitJob(t, s, j.ID, 2*time.Minute); v.Status != StatusDone {
			t.Fatalf("shard %d finished as %s (%s)", shard, v.Status, v.Error)
		}
	}
	hits := s.reg.Counter(campaign.MetricGoldenCacheHits).Value()
	misses := s.reg.Counter(campaign.MetricGoldenCacheMisses).Value()
	if hits != 1 || misses != 1 {
		t.Errorf("two shards of one campaign: %d golden-cache hits, %d misses, want 1 and 1", hits, misses)
	}
	if s.reg.Gauge(campaign.MetricGoldenCacheBytes).Value() <= 0 {
		t.Error("the daemon retains no golden artefact after its jobs")
	}
}

// TestJobRatesAreTheirOwn runs two jobs at once on one daemon, and so on
// one registry: a cheap 4×4 campaign and an 8×8 one whose runs cost
// several times more. Every progress event's faults/sec must be its own
// job's. With one campaign worker a job's rate divides the runs it has
// completed by a time no shorter than their wall times summed (its
// checkpoint records them in the order they ran) and no longer than the
// job had been running when the event arrived; the other job's rate
// breaks one bound or the other.
func TestJobRatesAreTheirOwn(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 4, Concurrency: 2, CampaignWorkers: 1})
	defer s.Stop(context.Background())
	dear := campaign.Spec{MeshW: 8, MeshH: 8, VCs: 4, InjectionRate: 0.1, Seed: 3, InjectCycle: 300,
		PostInjectRun: 1500, DrainDeadline: 10000, Epoch: 1500, HopLatency: 1, NumFaults: 48}
	type sample struct {
		done int
		fps  float64
		at   time.Time
	}
	var (
		jobs    []*Job
		samples = make([][]sample, 2)
		wg      sync.WaitGroup
	)
	for i, spec := range []campaign.Spec{testSpec(192), dear} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		events, _ := j.subscribe(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range events {
				if ev.Type == "progress" && ev.FaultsPerSec > 0 {
					samples[i] = append(samples[i], sample{ev.Done, ev.FaultsPerSec, time.Now()})
				}
			}
		}()
	}
	s.startWorkers()
	for _, j := range jobs {
		if v := waitJob(t, s, j.ID, 2*time.Minute); v.Status != StatusDone {
			t.Fatalf("job %s finished as %s (%s)", j.ID, v.Status, v.Error)
		}
	}
	wg.Wait()

	var mean [2]float64
	for i, j := range jobs {
		cd, err := trace.ReadCheckpointFile(s.checkpointPath(j))
		if err != nil {
			t.Fatal(err)
		}
		ran := make([]float64, len(cd.Records)+1) // ran[k]: the first k runs' wall times summed
		for k, rec := range cd.Records {
			ran[k+1] = ran[k] + rec.WallSeconds
		}
		if len(samples[i]) == 0 {
			t.Fatalf("job %d published no rate", i)
		}
		for _, sm := range samples[i] {
			hi := float64(sm.done) / ran[sm.done]
			lo := float64(sm.done) / sm.at.Sub(j.started).Seconds()
			if sm.fps > 1.01*hi || sm.fps < 0.99*lo {
				t.Errorf("job %d after %d runs: %.0f faults/sec, its own runs allow %.0f to %.0f", i, sm.done, sm.fps, lo, hi)
			}
		}
		mean[i] = float64(len(cd.Records)) / ran[len(cd.Records)]
	}
	if mean[0] < 3*mean[1] {
		t.Errorf("the cheap job ran %.0f faults/sec and the dear one %.0f: too close for a rate to tell them apart", mean[0], mean[1])
	}
}
