package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nocalert/internal/obs"
	"nocalert/internal/trace"
)

// TestCancelFreesQueueSlot: a job canceled while queued leaves the queue,
// so the slot it held takes the next submit.
func TestCancelFreesQueueSlot(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 2})
	var jobs []*Job
	for _, faults := range []int{24, 25} {
		j, err := s.Submit(testSpec(faults))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if _, err := s.Submit(testSpec(26)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit into a queue of two: %v, want ErrQueueFull", err)
	}
	if err := s.Cancel(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	third, err := s.Submit(testSpec(26))
	if err != nil {
		t.Fatalf("submit after canceling a queued job: %v", err)
	}
	// The queue holds the two live jobs, in order, and nothing else.
	for _, want := range []*Job{jobs[1], third} {
		if got := s.queue.pop(); got != want {
			t.Fatalf("popped %v, want job %s", got, want.ID)
		}
	}
	if got := s.queue.pop(); got != nil {
		t.Fatalf("popped %s from a queue that should be empty", got.ID)
	}

	// Across tenants the round robin goes on with the tenant it was at
	// when a tenant's last queued job is canceled.
	s = queuedServer(t, Config{QueueSize: 8})
	var byTenant []*Job
	for i, tenant := range []string{"a", "a", "b", "c"} {
		j, _, err := s.SubmitJob(testSpec(24+i), SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		byTenant = append(byTenant, j)
	}
	a1, a2, b1, c1 := byTenant[0], byTenant[1], byTenant[2], byTenant[3]
	if got := s.queue.pop(); got != a1 {
		t.Fatalf("first pop %v, want job %s", got, a1.ID)
	}
	if err := s.Cancel(a2.ID); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*Job{b1, c1, nil} {
		if got := s.queue.pop(); got != want {
			t.Fatalf("popped %v, want %v (b1 %s, c1 %s)", got, want, b1.ID, c1.ID)
		}
	}
}

// stateProbe follows one job from every side a client sees it from: the
// job-state manifest on disk, GET /v1/jobs/{id}, the job's event stream
// and the queued/running gauges.
type stateProbe struct {
	t      *testing.T
	s      *Server
	j      *Job
	events <-chan Event
	last   Event
}

// probe attaches to job j of server s; the stream's first event is the
// job's current state, as the events endpoint sends it.
func probe(t *testing.T, s *Server, j *Job) *stateProbe {
	events, _ := j.subscribe(1 << 12)
	return &stateProbe{t: t, s: s, j: j, events: events, last: j.event("snapshot")}
}

// agree requires every side to show the job in status want: the last
// event the stream delivered, the view, the gauges, and the manifest
// (queued for a running job, which is in memory only). The view and the
// event must also agree on the job's progress, and a terminal manifest
// on its run counts.
func (p *stateProbe) agree(step string, want Status) {
	p.t.Helper()
	for drained := false; !drained; {
		select {
		case ev, open := <-p.events:
			if !open {
				drained = true
				break
			}
			if ev.Dropped > 0 {
				p.t.Fatalf("%s: the stream dropped %d events", step, ev.Dropped)
			}
			p.last = ev
		default:
			drained = true
		}
	}
	rec := httptest.NewRecorder()
	p.s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+p.j.ID, nil))
	var v View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK {
		p.t.Fatalf("%s: GET the job: %d %s", step, rec.Code, rec.Body)
	}
	if v.Status != want || p.last.Status != want {
		p.t.Errorf("%s: view shows %s, the last event %s (%s); want %s", step, v.Status, p.last.Status, p.last.Type, want)
	}
	if v.Done != p.last.Done || v.Total != p.last.Total {
		p.t.Errorf("%s: view at %d/%d, the last event at %d/%d", step, v.Done, v.Total, p.last.Done, p.last.Total)
	}
	gauges := [2]float64{p.s.reg.Gauge(MetricJobsQueued).Value(), p.s.reg.Gauge(MetricJobsRunning).Value()}
	wantGauges := [2]float64{}
	switch want {
	case StatusQueued:
		wantGauges[0] = 1
	case StatusRunning:
		wantGauges[1] = 1
	}
	if gauges != wantGauges {
		p.t.Errorf("%s: job %s, %s %v and %s %v", step, want, MetricJobsQueued, gauges[0], MetricJobsRunning, gauges[1])
	}
	js, err := trace.ReadJobState(trace.JobStatePath(p.s.cfg.Dir, p.j.ID))
	if err != nil {
		p.t.Fatalf("%s: %v", step, err)
	}
	durable := want
	if want == StatusRunning {
		durable = StatusQueued
	}
	if Status(js.Status) != durable {
		p.t.Errorf("%s: job %s, its manifest holds %s", step, want, js.Status)
	}
	if want.Terminal() && (js.Done != v.Done || js.Total != v.Total) {
		p.t.Errorf("%s: manifest at %d/%d, view at %d/%d", step, js.Done, js.Total, v.Done, v.Total)
	}
}

// TestJobStateAgreesEverywhere walks one job through submit, run, drain,
// restart, resubmit and cancel, and then its resubmit to done; after each
// step the manifest, the view, the last stream event and the gauges show
// one status.
func TestJobStateAgreesEverywhere(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(32)
	gate := &runGate{after: 3, held: make(chan struct{}), release: make(chan struct{})}
	s1 := queuedServer(t, Config{Dir: dir, QueueSize: 4, CampaignWorkers: 1, Tracer: obs.New(obs.Options{Writer: gate})})
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := probe(t, s1, j)
	p.agree("submit", StatusQueued)

	s1.startWorkers()
	select {
	case <-gate.held:
	case <-time.After(2 * time.Minute):
		t.Fatal("the job never reached its fourth run")
	}
	p.agree("run", StatusRunning)

	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		stopped <- s1.Stop(ctx)
	}()
	<-s1.baseCtx.Done()
	close(gate.release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	p.agree("drain", StatusQueued)

	s2 := queuedServer(t, Config{Dir: dir, QueueSize: 4, CampaignWorkers: 1})
	defer s2.Stop(context.Background())
	j2, ok := s2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	p = probe(t, s2, j2)
	p.agree("restart", StatusQueued)

	again, existing, err := s2.SubmitJob(spec, SubmitOptions{})
	if err != nil || !existing || again != j2 {
		t.Fatalf("resubmit: existing=%v err=%v, want job %s back", existing, err, j.ID)
	}
	p.agree("resubmit", StatusQueued)

	if err := s2.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	p.agree("cancel", StatusCanceled)

	next, existing, err := s2.SubmitJob(spec, SubmitOptions{})
	if err != nil || existing {
		t.Fatalf("resubmit after cancel: existing=%v err=%v, want a new job", existing, err)
	}
	p = probe(t, s2, next)
	s2.startWorkers()
	if v := waitJob(t, s2, next.ID, 2*time.Minute); v.Status != StatusDone || v.Resumed == 0 {
		t.Fatalf("the new job ended %+v, want done resuming the drained job's runs", v)
	}
	p.agree("run to done", StatusDone)
}

// TestStreamEndsWithOneStatus: a stream attached before a job runs ends
// with the job's terminal status, once.
func TestStreamEndsWithOneStatus(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 4, CampaignWorkers: 1})
	defer s.Stop(context.Background())
	j, err := s.Submit(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	s.startWorkers()
	var types []string
	for dec := json.NewDecoder(resp.Body); ; {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Type == "status" && ev.Status != StatusDone {
			t.Fatalf("job ended %s (%s)", ev.Status, ev.Error)
		}
		types = append(types, ev.Type)
	}
	statuses := 0
	for _, typ := range types {
		if typ == "status" {
			statuses++
		}
	}
	if statuses != 1 || types[len(types)-1] != "status" {
		t.Fatalf("the stream's event types %v: want it to end with the one status", types)
	}
}

// TestRecoveredJobStreamEnds: the event stream of a job a restarted daemon
// recovered as done is its snapshot and its status, then the end, as for
// any job over.
func TestRecoveredJobStreamEnds(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, s1, j.ID, 2*time.Minute); v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	s1.Stop(context.Background())

	s2 := queuedServer(t, Config{Dir: dir})
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	for dec := json.NewDecoder(resp.Body); ; {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if ctx.Err() != nil {
				t.Fatalf("the stream of a recovered done job was still open after 10 s, having sent %v", types)
			}
			break
		}
		types = append(types, ev.Type+" "+string(ev.Status))
	}
	if len(types) != 2 || types[0] != "snapshot done" || types[1] != "status done" {
		t.Fatalf("the stream of a recovered done job sent %v, want its snapshot and its status", types)
	}
}
