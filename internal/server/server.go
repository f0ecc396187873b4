package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/trace"
)

// Server metric names, published into the same registry the campaign
// engine instruments, so one /metrics scrape covers queue health and
// live campaign throughput alike.
const (
	MetricJobsSubmitted = "nocalertd_jobs_submitted_total"
	MetricJobsRejected  = "nocalertd_jobs_rejected_total"
	MetricJobsDone      = "nocalertd_jobs_done_total"
	MetricJobsFailed    = "nocalertd_jobs_failed_total"
	MetricJobsCanceled  = "nocalertd_jobs_canceled_total"
	MetricJobsRecovered = "nocalertd_jobs_recovered_total"
	MetricJobsQueued    = "nocalertd_jobs_queued"
	MetricJobsRunning   = "nocalertd_jobs_running"
	MetricHTTPRequests  = "nocalertd_http_requests_total"
)

// Config tunes a Server. Zero values get serviceable defaults.
type Config struct {
	// Dir is the state directory: job manifests, shard checkpoints and
	// final reports all live here (see trace.JobStatePath and friends).
	// Required.
	Dir string
	// QueueSize bounds the submission queue; a submit beyond it is
	// rejected with 429 rather than buffered without bound. Default 16.
	QueueSize int
	// Concurrency is how many jobs run at once. The default of 1 gives
	// each campaign the whole worker pool — jobs are internally
	// parallel, so stacking them oversubscribes the CPU.
	Concurrency int
	// CampaignWorkers is each campaign's worker-pool size; 0 means
	// GOMAXPROCS.
	CampaignWorkers int
	// VerifyResumed is passed through to RunShard when a job resumes a
	// non-empty checkpoint (0 = default sample, -1 = none).
	VerifyResumed int
	// EventBuffer is each progress stream's channel depth; a consumer
	// that falls further behind has events dropped (and counted) rather
	// than stalling the campaign. Default 64.
	EventBuffer int
	// Registry receives job-queue and campaign telemetry; one is
	// created when nil.
	Registry *metrics.Registry
	// Logger receives one structured record per job transition, every
	// record carrying the job ID (and, when tracing is on, the trace ID)
	// so daemon logs correlate with span streams. Nil discards.
	Logger *slog.Logger
	// Tracer, when non-nil, wraps every job execution in a job span and
	// threads the job → shard → run span hierarchy through RunShard.
	Tracer *obs.Tracer
	// AuthTokens maps bearer tokens to tenant names. When non-empty,
	// the mutating endpoints (submit, cancel) require a configured
	// token and the request runs as its tenant; when empty, auth is
	// off and every request is the anonymous "" tenant.
	AuthTokens map[string]string
	// TenantQuota caps each tenant's active (queued + running) jobs;
	// 0 means unlimited. A tenant at quota gets 429 at submit.
	TenantQuota int
	// RateLimit throttles mutating requests per tenant to this many
	// per second (token bucket with RateBurst headroom); 0 disables
	// rate limiting. Exhaustion is a 429 with Retry-After.
	RateLimit float64
	// RateBurst is the token bucket's capacity; default 5 when
	// RateLimit is set.
	RateBurst int
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 64
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = 5
	}
	return c
}

// Server owns the job table, the bounded queue and the worker pool.
type Server struct {
	cfg Config
	reg *metrics.Registry

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listings

	// golden keeps the golden artefacts of recent campaigns, so the
	// shards and resumed jobs of one campaign this daemon runs build the
	// golden reference once (see campaign.GoldenCache).
	golden *campaign.GoldenCache

	queue *fairQueue
	// limiter throttles mutating requests per tenant (nil = off).
	limiter *rateLimiter
	// baseCtx parents every job run; stop cancels it on drain.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	// draining refuses new submissions during shutdown.
	draining bool

	mSubmitted, mRejected     *metrics.Counter
	mDone, mFailed, mCanceled *metrics.Counter
	mRecovered                *metrics.Counter
	mAuthFail, mRateLimited   *metrics.Counter
	mQuotaDenied              *metrics.Counter
	gQueued, gRunning         *metrics.Gauge
}

// New builds a Server over the state directory, rebuilds the job table
// from the manifests found there, re-enqueues every unfinished job
// (oldest first) and starts the worker pool. A job whose manifest says
// "done" but whose report file is missing — a crash between finalizing
// the checkpoint and writing the report — is re-enqueued too; its
// finalized checkpoint makes the re-run a pure report rebuild.
func New(cfg Config) (*Server, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.startWorkers()
	return s, nil
}

// build is New without the worker pool — the seam tests use to hold
// submitted jobs in the queued state deterministically.
func build(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		reg:          cfg.Registry,
		jobs:         make(map[string]*Job),
		golden:       campaign.NewGoldenCache(),
		queue:        newFairQueue(cfg.QueueSize),
		baseCtx:      ctx,
		stop:         cancel,
		mSubmitted:   cfg.Registry.Counter(MetricJobsSubmitted),
		mRejected:    cfg.Registry.Counter(MetricJobsRejected),
		mDone:        cfg.Registry.Counter(MetricJobsDone),
		mFailed:      cfg.Registry.Counter(MetricJobsFailed),
		mCanceled:    cfg.Registry.Counter(MetricJobsCanceled),
		mRecovered:   cfg.Registry.Counter(MetricJobsRecovered),
		mAuthFail:    cfg.Registry.Counter(MetricAuthFailures),
		mRateLimited: cfg.Registry.Counter(MetricRateLimited),
		mQuotaDenied: cfg.Registry.Counter(MetricQuotaDenied),
		gQueued:      cfg.Registry.Gauge(MetricJobsQueued),
		gRunning:     cfg.Registry.Gauge(MetricJobsRunning),
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst, nil)
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// jobLog returns the configured logger bound to one job's correlation
// attributes: the job ID always, and the trace ID when tracing is on —
// the same ID every span of the job's campaign carries, so a log line
// and a span stream join on it.
func (s *Server) jobLog(id string) *slog.Logger {
	l := s.cfg.Logger.With("job", id)
	if s.cfg.Tracer != nil {
		l = l.With("trace_id", s.cfg.Tracer.TraceID())
	}
	return l
}

// recover rebuilds the job table from the state directory.
func (s *Server) recover() error {
	states, err := trace.ListJobStates(s.cfg.Dir)
	if err != nil {
		return err
	}
	var requeue []*Job
	for _, js := range states {
		var spec campaign.Spec
		if err := json.Unmarshal(js.Spec, &spec); err != nil {
			return fmt.Errorf("server: job %s: bad spec: %v", js.ID, err)
		}
		if h := spec.Hash(); h != js.SpecHash {
			return fmt.Errorf("server: job %s: spec hash %s does not match its spec (%s)", js.ID, js.SpecHash, h)
		}
		j := newJob(js.ID, spec, parseRFC3339(js.SubmittedAt))
		j.Tenant = js.Tenant
		if js.Shards > 1 {
			j.ShardIndex, j.ShardCount = js.Shard, js.Shards
		}
		j.status = Status(js.Status)
		j.errMsg = js.Error
		j.finished = parseRFC3339(js.FinishedAt)
		if js.Status == trace.JobDone {
			// A done job's product must still exist: the aggregated
			// report for a whole-campaign job, the finalized checkpoint
			// for a coordinator-dispatched shard. A crash between
			// checkpoint finalize and product write re-enqueues the job;
			// its checkpoint makes the re-run a pure rebuild.
			product := trace.JobReportPath(s.cfg.Dir, js.ID)
			if j.ShardCount > 1 {
				product = s.checkpointPath(j)
			}
			if _, err := os.Stat(product); err != nil {
				j.status = StatusQueued
				j.finished = time.Time{}
			} else if js.Total > 0 {
				j.done, j.total = js.Done, js.Total
			} else {
				j.done, j.total = spec.NumFaults, spec.NumFaults
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.status == StatusQueued {
			requeue = append(requeue, j)
		}
	}
	if len(requeue) > s.queue.cap() {
		return fmt.Errorf("server: %d unfinished jobs to recover, queue holds %d — raise QueueSize", len(requeue), s.queue.cap())
	}
	for _, j := range requeue {
		s.queue.push(j)
		s.gQueued.Add(1)
		s.mRecovered.Inc()
		s.jobLog(j.ID).Info("job recovered as queued", "spec", j.SpecHash)
	}
	return nil
}

// checkpointPath returns the job's shard-checkpoint location: keyed by
// job ID for whole-campaign jobs (the PR-4 layout), and by campaign
// identity + shard coordinates for coordinator-dispatched shards, so a
// re-submitted shard resumes the partial checkpoint an earlier attempt
// left behind (RunShard's skip-and-verify path proves it first).
func (s *Server) checkpointPath(j *Job) string {
	if j.ShardCount > 1 {
		return trace.ShardCheckpointPath(s.cfg.Dir, j.SpecHash, j.ShardIndex, j.ShardCount)
	}
	return trace.JobCheckpointPath(s.cfg.Dir, j.ID)
}

func parseRFC3339(s string) time.Time {
	if s == "" {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// ErrQueueFull is returned (and mapped to 429) when the submission
// queue is at capacity.
var ErrQueueFull = errors.New("server: job queue is full")

// errDraining is returned when the daemon is shutting down.
var errDraining = errors.New("server: draining, not accepting jobs")

// SubmitOptions carries a submission's multi-tenant and shard
// context. The zero value is an anonymous whole-campaign job.
type SubmitOptions struct {
	// Tenant is the submitting tenant (resolved by the auth layer).
	Tenant string
	// Shard/Shards submit one slice of a larger campaign: the job runs
	// PlanShard(spec, Shard, Shards) and its product is the finalized
	// shard checkpoint rather than an aggregated report. 0/0 (the zero
	// value) and 0/1 mean a whole-campaign job; a pair that names no shard
	// — a count below 1, an index outside [0, Shards) — is refused.
	Shard  int
	Shards int
}

// SubmitJob validates, persists and enqueues a new job. Sharded
// submissions are idempotent on (spec, shard): when an active or done
// job for the same shard of the same campaign already exists, that job
// is returned with existing=true instead of queueing a duplicate —
// which is what lets a coordinator retry a submit over a flaky link
// (or re-dispatch after its own restart) without doubling work.
func (s *Server) SubmitJob(spec campaign.Spec, o SubmitOptions) (j *Job, existing bool, err error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if o.Shard == 0 && o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 1 {
		return nil, false, fmt.Errorf("server: shard count %d < 1", o.Shards)
	}
	if o.Shard < 0 || o.Shard >= o.Shards {
		return nil, false, fmt.Errorf("server: shard index %d outside [0,%d)", o.Shard, o.Shards)
	}
	specJSON, err := json.Marshal(&spec)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	specHash := spec.Hash()
	if o.Shards > 1 {
		for _, id := range s.order {
			cand := s.jobs[id]
			if cand.SpecHash != specHash || cand.ShardIndex != o.Shard || cand.ShardCount != o.Shards {
				continue
			}
			cand.mu.Lock()
			st := cand.status
			cand.mu.Unlock()
			// Failed and canceled attempts do not block a retry; their
			// partial checkpoint is resumed by the new job.
			if st == StatusFailed || st == StatusCanceled {
				continue
			}
			s.mu.Unlock()
			s.jobLog(cand.ID).Info("shard submit deduplicated onto existing job",
				"spec", specHash, "shard", o.Shard, "shards", o.Shards, "status", st)
			return cand, true, nil
		}
	}
	if s.cfg.TenantQuota > 0 && s.activeJobsLocked(o.Tenant) >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.mQuotaDenied.Inc()
		return nil, false, ErrQuotaExceeded
	}
	j = newJob(newJobID(), spec, time.Now())
	j.Tenant = o.Tenant
	j.ShardIndex, j.ShardCount = o.Shard, o.Shards
	if o.Shards > 1 {
		// A shard job's run count is its slice of the universe, not the
		// whole campaign's (exact once planned; 0 when NumFaults means
		// "every location" and the universe size is not yet known).
		lo, hi := campaign.ShardRange(spec.NumFaults, o.Shard, o.Shards)
		j.total = hi - lo
	}
	// The manifest must be durable before the job is visible or
	// runnable: a daemon killed right after the 201 response still
	// knows the job on restart.
	js := &trace.JobState{
		ID:          j.ID,
		Spec:        specJSON,
		SpecHash:    j.SpecHash,
		Tenant:      j.Tenant,
		Status:      trace.JobQueued,
		SubmittedAt: rfc3339(j.submitted),
	}
	if o.Shards > 1 {
		js.Shard, js.Shards = o.Shard, o.Shards
	}
	if err := trace.WriteJobState(s.cfg.Dir, js); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	if !s.queue.push(j) {
		s.mu.Unlock()
		os.Remove(trace.JobStatePath(s.cfg.Dir, j.ID))
		s.mRejected.Inc()
		return nil, false, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.mSubmitted.Inc()
	s.gQueued.Add(1)
	s.jobLog(j.ID).Info("job queued", "spec", j.SpecHash, "faults", spec.NumFaults,
		"tenant", j.Tenant, "shard", j.ShardIndex, "shards", j.ShardCount)
	return j, false, nil
}

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobViews lists every known job in submission order.
func (s *Server) JobViews() []View {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]View, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Cancel requests cancellation. A queued job goes terminal
// immediately; a running one is canceled cooperatively (its completed
// runs stay durable in the checkpoint). Terminal jobs return an error.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("server: no job %s", id)
	}
	j.mu.Lock()
	switch {
	case j.status.Terminal():
		st := j.status
		j.mu.Unlock()
		return fmt.Errorf("server: job %s is already %s", id, st)
	case j.status == StatusRunning:
		j.canceled = true
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	case j.canceled: // queued, its cancel already under way
		j.mu.Unlock()
		return nil
	default: // queued: the worker skips it on dequeue from now on
		j.canceled = true
		errMsg := j.errMsg
		j.mu.Unlock()
		// Durable first: whoever sees the job canceled finds it so on disk.
		finished := time.Now()
		s.persistTerminal(j, StatusCanceled, errMsg, finished)
		j.mu.Lock()
		j.status = StatusCanceled
		j.finished = finished
		j.publishLocked(Event{Type: "status", Job: j.ID, Status: StatusCanceled, Done: j.done, Total: j.total})
		j.closeHubLocked()
		j.mu.Unlock()
		s.gQueued.Add(-1)
		s.mCanceled.Inc()
		s.jobLog(id).Info("job canceled while queued")
		return nil
	}
}

// ReportPath returns the final report location for a done job.
func (s *Server) ReportPath(id string) string { return trace.JobReportPath(s.cfg.Dir, id) }

// Stop drains the server: no new submissions, running campaigns are
// canceled cooperatively (every completed run is already durable in
// its checkpoint, so nothing is lost), and the worker pool exits. The
// ctx bounds how long Stop waits for in-flight runs to finish their
// current faults.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// worker pulls jobs off the queue until drain, parking on the queue's
// notify channel when it is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if j := s.queue.pop(); j != nil {
			s.runJob(j)
			continue
		}
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.queue.notify:
		}
	}
}

// runJob executes one job end to end against its durable checkpoint.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.canceled || j.status.Terminal() {
		// Canceled while queued; Cancel makes the state durable.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancelRun = cancel
	j.publishLocked(Event{Type: "snapshot", Job: j.ID, Status: StatusRunning, Done: j.done, Total: j.total})
	j.mu.Unlock()
	s.gQueued.Add(-1)
	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)

	err := s.execute(ctx, j)

	j.mu.Lock()
	canceled := j.canceled
	j.cancelRun = nil
	var st Status
	errMsg := j.errMsg
	switch {
	case err == nil:
		st, errMsg = StatusDone, ""
	case canceled && errors.Is(err, context.Canceled):
		st = StatusCanceled
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Daemon drain, not a user cancel: the job stays durable as
		// queued and resumes on the next start. In-memory it goes back
		// to queued too, for a truthful /v1/jobs during shutdown.
		j.status = StatusQueued
		j.mu.Unlock()
		s.jobLog(j.ID).Info("job interrupted by drain; checkpoint keeps completed runs", "done", j.done)
		return
	default:
		st, errMsg = StatusFailed, err.Error()
	}
	j.mu.Unlock()
	// Durable first: whoever sees the terminal status below finds it on
	// disk, so a restart cannot bring the job back.
	finished := time.Now()
	s.persistTerminal(j, st, errMsg, finished)
	j.mu.Lock()
	j.status, j.finished, j.errMsg = st, finished, errMsg
	j.faultsPerSec = 0 // terminal: the live throughput is over
	final := Event{Type: "status", Job: j.ID, Status: j.status, Done: j.done, Total: j.total, Resumed: j.resumed,
		FastPathHits: j.fastPath, Reconverged: j.reconverged, FullSim: j.fullSim, Forked: j.forked, Error: j.errMsg}
	j.publishLocked(final)
	j.closeHubLocked()
	j.mu.Unlock()

	switch st {
	case StatusDone:
		s.mDone.Inc()
	case StatusFailed:
		s.mFailed.Inc()
	case StatusCanceled:
		s.mCanceled.Inc()
	}
	if st == StatusFailed {
		s.jobLog(j.ID).Error("job failed", "error", errMsg)
	} else {
		s.jobLog(j.ID).Info("job finished", "status", st)
	}
}

// execute plans the job as shard 0/1, resumes its checkpoint, runs the
// remainder and writes the final report. Any error leaves the
// checkpoint consistent for the next attempt. When tracing is on the
// whole execution runs under a job span, the root of the job → shard →
// run hierarchy RunShard and the campaign extend.
func (s *Server) execute(ctx context.Context, j *Job) error {
	jspan := s.cfg.Tracer.Start(nil, "job", "job["+j.ID+"]")
	jspan.SetAttr("job_id", j.ID)
	jspan.SetAttr("spec_hash", j.SpecHash)
	err := s.executeShard(ctx, j, jspan)
	if err != nil {
		jspan.SetAttr("error", err.Error())
	}
	jspan.End()
	return err
}

// executeShard is execute's body, split out so the job span brackets
// every exit path.
func (s *Server) executeShard(ctx context.Context, j *Job, jspan *obs.Span) error {
	sh, err := campaign.PlanShard(j.Spec, j.ShardIndex, j.ShardCount)
	if err != nil {
		return err
	}
	m, err := sh.Manifest()
	if err != nil {
		return err
	}
	ckptPath := s.checkpointPath(j)
	cp, completed, err := trace.ResumeCheckpoint(ckptPath, m)
	if err != nil {
		return err
	}
	defer cp.Close()

	total := sh.End - sh.Start
	j.mu.Lock()
	j.total = total
	j.resumed = len(completed)
	j.done = len(completed)
	if len(completed) > 0 {
		// The resume jump: subscribers see the checkpoint's progress
		// restored before any new run executes. No throughput fields —
		// nothing has been measured yet (see campaign.EstimateETA).
		j.publishLocked(Event{Type: "snapshot", Job: j.ID, Status: StatusRunning,
			Done: j.done, Total: total, Resumed: j.resumed})
	}
	j.mu.Unlock()
	if len(completed) > 0 {
		s.jobLog(j.ID).Info("resuming checkpoint", "recorded", len(completed), "total", total)
	}

	_, stats, err := campaign.RunShard(sh, cp, completed, campaign.ShardRunOptions{
		Workers:       s.cfg.CampaignWorkers,
		GoldenCache:   s.golden,
		Metrics:       s.reg,
		Context:       ctx,
		VerifyResumed: s.cfg.VerifyResumed,
		Tracer:        s.cfg.Tracer,
		TraceParent:   jspan,
		Progress: func(done, total int, st campaign.ShardRunStats) {
			ev := Event{Type: "progress", Job: j.ID, Status: StatusRunning, Done: done, Total: total,
				FastPathHits: st.FastPathHits, Reconverged: st.Reconverged, FullSim: st.FullSim}
			if eta, ok := campaign.EstimateETA(total-done, st.FaultsPerSec); ok {
				ev.FaultsPerSec = st.FaultsPerSec
				ev.ETASeconds = eta.Seconds()
			}
			j.mu.Lock()
			j.done = done
			j.fastPath = st.FastPathHits
			j.reconverged = st.Reconverged
			j.fullSim = st.FullSim
			j.faultsPerSec = st.FaultsPerSec
			ev.Resumed = j.resumed
			j.publishLocked(ev)
			j.mu.Unlock()
		},
	})
	j.mu.Lock()
	j.executed = stats.Executed
	j.verified = stats.Verified
	j.fastPath = stats.FastPathHits
	j.reconverged = stats.Reconverged
	j.fullSim = stats.FullSim
	j.forked = stats.Forked
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if !stats.Complete {
		return fmt.Errorf("server: job %s checkpoint is incomplete after a clean run", j.ID)
	}
	if err := cp.Close(); err != nil {
		return err
	}
	if j.ShardCount > 1 {
		// A shard job's product is its finalized checkpoint; the
		// aggregated report only exists once a coordinator folds every
		// shard through the merge gate.
		return nil
	}
	return s.writeReport(j, ckptPath)
}

// writeReport rebuilds the aggregated report from the finalized
// checkpoint — the exact path a shard merge takes, which is what makes
// the report byte-identical to an uninterrupted (or unsharded CLI)
// run's WriteJSON output — and lands it atomically.
func (s *Server) writeReport(j *Job, ckptPath string) error {
	cd, err := trace.ReadCheckpointFile(ckptPath)
	if err != nil {
		return err
	}
	rep, err := campaign.ReportFromRecords(j.Spec, cd.Records)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	return trace.AtomicWriteFile(trace.JobReportPath(s.cfg.Dir, j.ID), buf.Bytes())
}

// persistTerminal rewrites the job manifest with the terminal status st,
// error errMsg and finish time finished, which the job does not show yet.
func (s *Server) persistTerminal(j *Job, st Status, errMsg string, finished time.Time) {
	v := j.view()
	v.Status, v.Error, v.FinishedAt = st, errMsg, rfc3339(finished)
	specJSON, err := json.Marshal(&v.Spec)
	if err != nil {
		s.jobLog(j.ID).Error("job state persist failed", "error", err)
		return
	}
	if err := trace.WriteJobState(s.cfg.Dir, &trace.JobState{
		ID:          j.ID,
		Spec:        specJSON,
		SpecHash:    v.SpecHash,
		Tenant:      v.Tenant,
		Shard:       v.Shard,
		Shards:      v.Shards,
		Done:        v.Done,
		Total:       v.Total,
		Status:      string(v.Status),
		Error:       v.Error,
		SubmittedAt: v.SubmittedAt,
		FinishedAt:  v.FinishedAt,
	}); err != nil {
		s.jobLog(j.ID).Error("job state persist failed", "error", err)
	}
}
