package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
	"nocalert/internal/trace"
)

// API surface:
//
//	POST   /v1/jobs             submit a campaign.Spec (?shard=i&shards=n,
//	                            default 0/1); 201 + job view, 200 + the
//	                            existing job's view when a queued, running
//	                            or done job of the same spec and shard
//	                            exists, 429 when the queue is full
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel (202 running, 200 queued,
//	                            409 terminal; 403 another tenant's job
//	                            when auth is on)
//	GET    /v1/jobs/{id}/events progress stream: NDJSON by default,
//	                            SSE framing with Accept: text/event-stream
//	GET    /v1/jobs/{id}/report a done 0/1 job's report JSON, folded from
//	                            its checkpoint (409 for n > 1 or until
//	                            done — byte-identical to the equivalent
//	                            unsharded faultcampaign -json output)
//	GET    /v1/jobs/{id}/checkpoint a done job's finalized checkpoint
//	GET    /healthz             liveness + queue summary
//	GET    /metrics             OpenMetrics/Prometheus text exposition
//	GET    /debug/pprof/        live profiling
//
// Every non-streaming handler runs under RequestTimeout; the events
// stream is bounded by StreamTimeout instead, because a legitimate
// subscriber holds its connection for the whole campaign.

// DefaultRequestTimeout bounds non-streaming handlers.
const DefaultRequestTimeout = 30 * time.Second

// DefaultStreamTimeout bounds one events-stream connection.
const DefaultStreamTimeout = 4 * time.Hour

// eventBuffer is each events stream's channel depth; a consumer that
// falls further behind has events dropped (and counted) rather than
// stalling the campaign.
const eventBuffer = 64

// httpError is the JSON error body every failure path returns.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the service mux: the job API, health, OpenMetrics and
// the pprof pages, all on one listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	timeout := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, DefaultRequestTimeout, `{"error":"request timed out"}`)
	}
	mux.Handle("POST /v1/jobs", timeout(s.requireAuth(s.handleSubmit)))
	mux.Handle("GET /v1/jobs", timeout(s.handleList))
	mux.Handle("GET /v1/jobs/{id}", timeout(s.handleStatus))
	mux.Handle("DELETE /v1/jobs/{id}", timeout(s.requireAuth(s.handleCancel)))
	mux.Handle("GET /v1/jobs/{id}/report", timeout(s.handleReport))
	mux.Handle("GET /v1/jobs/{id}/checkpoint", timeout(s.handleCheckpoint))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents) // streaming: no TimeoutHandler
	mux.Handle("GET /healthz", timeout(s.handleHealth))
	mux.Handle("GET /metrics", timeout(s.handleOpenMetrics))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	requests := s.reg.Counter(MetricHTTPRequests)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad campaign spec: %v", err)
		return
	}
	opts := SubmitOptions{Tenant: tenantFrom(r)}
	q := r.URL.Query()
	if q.Get("shard") != "" || q.Get("shards") != "" {
		var err error
		if opts.Shard, err = strconv.Atoi(q.Get("shard")); err != nil {
			httpError(w, http.StatusBadRequest, "bad shard parameter: %v", err)
			return
		}
		if opts.Shards, err = strconv.Atoi(q.Get("shards")); err != nil {
			httpError(w, http.StatusBadRequest, "bad shards parameter: %v", err)
			return
		}
	}
	j, existing, err := s.SubmitJob(spec, opts)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "job queue is full (%d queued); retry later", s.cfg.QueueSize)
		return
	case errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "tenant %q is at its active-job quota (%d); retry when a job finishes", opts.Tenant, s.cfg.TenantQuota)
		return
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	code := http.StatusCreated
	if existing {
		// Idempotent re-submission: same spec hash and shard
		// coordinates as a live or completed job.
		code = http.StatusOK
	}
	writeJSON(w, code, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.JobViews()})
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if len(s.cfg.AuthTokens) > 0 && j.Tenant != tenantFrom(r) {
		httpError(w, http.StatusForbidden, "job %s is not tenant %q's to cancel", j.ID, tenantFrom(r))
		return
	}
	wasRunning := j.view().Status == StatusRunning
	if err := s.Cancel(j.ID); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	code := http.StatusOK
	if wasRunning {
		code = http.StatusAccepted // cooperative: in-flight runs finish first
	}
	writeJSON(w, code, j.view())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	v := j.view()
	if v.Shards > 1 {
		httpError(w, http.StatusConflict, "job %s is shard %d/%d of a larger campaign; fetch its checkpoint and merge instead", j.ID, v.Shard, v.Shards)
		return
	}
	if v.Status != StatusDone {
		httpError(w, http.StatusConflict, "job %s is %s; the report exists once it is done", j.ID, v.Status)
		return
	}
	// The fold a shard merge takes, over the job's finalized checkpoint:
	// the bytes an unsharded run's WriteJSON writes.
	var buf bytes.Buffer
	cd, err := trace.ReadCheckpointFile(s.checkpointPath(j))
	if err == nil {
		var rep *campaign.Report
		if rep, err = campaign.ReportFromRecords(j.Spec, cd.Records); err == nil {
			err = rep.WriteJSON(&buf)
		}
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "job %s: folding its checkpoint: %v", j.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// handleCheckpoint serves a done job's finalized shard checkpoint —
// the NDJSON artifact `faultcampaign merge` and a coordinator fold. Like
// the report it exists only once the job is done.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if v := j.view(); v.Status != StatusDone {
		httpError(w, http.StatusConflict, "job %s is %s; the checkpoint is final once it is done", j.ID, v.Status)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	http.ServeFile(w, r, s.checkpointPath(j))
}

// handleEvents streams the job's progress until the job goes terminal,
// the client disconnects, or StreamTimeout elapses. The first line is
// always a snapshot of the current state; the last line (when the job
// ends during the stream) is the terminal status — delivered even if
// intermediate progress events were dropped on a slow consumer.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// Subscribe before the snapshot so no transition between the two is
	// lost; the snapshot then establishes the baseline.
	events, unsubscribe := j.subscribe(eventBuffer)
	defer unsubscribe()
	last := j.event("snapshot")
	if !writeEvent(last) {
		return
	}
	deadline := time.NewTimer(DefaultStreamTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-deadline.C:
			return
		case ev, open := <-events:
			if !open {
				// Terminal: the hub closed. Emit the final state unless
				// it was the last event sent, so the client sees it once,
				// even after dropped events.
				if last.Type != "status" {
					writeEvent(j.event("status"))
				}
				return
			}
			if last = ev; !writeEvent(ev) {
				return
			}
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": draining,
		"jobs":     jobs,
		"queued":   s.gauges[StatusQueued].Value(),
		"running":  s.gauges[StatusRunning].Value(),
	})
}

// handleOpenMetrics is the Prometheus/OpenMetrics exposition of the
// whole registry — queue gauges and campaign counters alike — for
// standard scrapers.
func (s *Server) handleOpenMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.OpenMetricsContentType)
	s.reg.WriteOpenMetrics(w)
}
