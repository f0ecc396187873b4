package server

import (
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
	// Dir is the state directory: job manifests and shard checkpoints
	// live here (see trace.JobStatePath and trace.ShardCheckpointPath).
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
	// writers holds a lock per checkpoint path, one writer a checkpoint.
	// Only jobs recovered from a state directory older than the shard
	// identity (two whole-campaign jobs of one spec) ever wait on one.
	writers map[string]*sync.Mutex

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
// "done" but whose checkpoint, its only product, is gone is re-enqueued
// too and runs again.
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
		writers:      make(map[string]*sync.Mutex),
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
		shards, err := checkJob(&spec, js.Shard, js.Shards)
		if err != nil {
			return fmt.Errorf("server: job %s: %v", js.ID, err)
		}
		j := newJob(js.ID, spec, js.Shard, shards, parseRFC3339(js.SubmittedAt))
		j.Tenant = js.Tenant
		j.status = Status(js.Status)
		j.errMsg = js.Error
		j.finished = parseRFC3339(js.FinishedAt)
		if js.Status == trace.JobDone {
			// A done job's product is its finalized checkpoint; a job
			// whose checkpoint is gone runs again.
			if _, err := os.Stat(s.checkpointPath(j)); err != nil {
				j.status = StatusQueued
				j.finished = time.Time{}
			} else if js.Total > 0 {
				j.done, j.total = js.Done, js.Total
			} else {
				j.done = j.total
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

// checkpointPath returns the job's checkpoint location, keyed by its
// identity (spec hash and shard coordinates), so a re-submitted job
// resumes the partial checkpoint an earlier attempt left behind
// (RunShard's skip-and-verify path proves it first).
func (s *Server) checkpointPath(j *Job) string {
	return trace.ShardCheckpointPath(s.cfg.Dir, j.SpecHash, j.ShardIndex, j.ShardCount)
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
	// Shard/Shards name the job's shard: it runs PlanShard(spec, Shard,
	// Shards) and its product is the finalized shard checkpoint. 0/0 (the
	// zero value) is 0/1, the whole campaign; a pair that names no shard
	// — a count below 1, an index outside [0, Shards) — is refused.
	Shard  int
	Shards int
}

// checkJob is the intake check of a job, submitted or recovered from its
// manifest: the spec validates and shard/shards name a shard of it, 0/0
// meaning the whole campaign. It returns the shard count, 0/0 as 1.
func checkJob(spec *campaign.Spec, shard, shards int) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if shard == 0 && shards == 0 {
		shards = 1
	}
	if shards < 1 {
		return 0, fmt.Errorf("server: shard count %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return 0, fmt.Errorf("server: shard index %d outside [0,%d)", shard, shards)
	}
	return shards, nil
}

// SubmitJob validates, persists and enqueues a new job. Submissions are
// idempotent on the job's identity, (spec hash, shard, shards): when a
// queued, running or done job of the same identity already exists, that
// job is returned with existing=true instead of queueing a duplicate —
// which is what lets a client retry a submit over a flaky link (or a
// coordinator re-dispatch after its own restart) without doubling work.
func (s *Server) SubmitJob(spec campaign.Spec, o SubmitOptions) (j *Job, existing bool, err error) {
	spec.Normalize()
	if o.Shards, err = checkJob(&spec, o.Shard, o.Shards); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	specHash := spec.Hash()
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
		s.jobLog(cand.ID).Info("submit deduplicated onto existing job",
			"spec", specHash, "shard", o.Shard, "shards", o.Shards, "status", st)
		return cand, true, nil
	}
	if s.cfg.TenantQuota > 0 && s.activeJobsLocked(o.Tenant) >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.mQuotaDenied.Inc()
		return nil, false, ErrQuotaExceeded
	}
	j = newJob(newJobID(), spec, o.Shard, o.Shards, time.Now())
	j.Tenant = o.Tenant
	// The manifest must be durable before the job is visible or
	// runnable: a daemon killed right after the 201 response still
	// knows the job on restart.
	if err := s.persistJob(j, StatusQueued, "", time.Time{}); err != nil {
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
		j.publishLocked(j.eventLocked("status"))
		j.closeHubLocked()
		j.mu.Unlock()
		s.gQueued.Add(-1)
		s.mCanceled.Inc()
		s.jobLog(id).Info("job canceled while queued")
		return nil
	}
}

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

// runJob executes one job end to end against its durable checkpoint,
// after any other job of its identity.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	w := s.writers[s.checkpointPath(j)]
	if w == nil {
		w = new(sync.Mutex)
		s.writers[s.checkpointPath(j)] = w
	}
	s.mu.Unlock()
	w.Lock()
	defer w.Unlock()

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
	j.publishLocked(j.eventLocked("snapshot"))
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
	j.stats.FaultsPerSec = 0 // terminal: the live throughput is over
	j.publishLocked(j.eventLocked("status"))
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

// execute runs the job's shard against its checkpoint, resuming what
// an earlier attempt left there. Any error leaves the checkpoint
// consistent for the next attempt. When tracing is on the whole execution runs under a job
// span, the root of the job → shard → run hierarchy RunShard and the
// campaign extend.
func (s *Server) execute(ctx context.Context, j *Job) error {
	jspan := s.cfg.Tracer.Start(nil, "job", "job["+j.ID+"]")
	jspan.SetAttr("job_id", j.ID)
	jspan.SetAttr("spec_hash", j.SpecHash)
	_, stats, err := campaign.RunShard(j.Spec, j.ShardIndex, j.ShardCount, s.checkpointPath(j), campaign.ShardRunOptions{
		Workers:       s.cfg.CampaignWorkers,
		GoldenCache:   s.golden,
		Metrics:       s.reg,
		Context:       ctx,
		VerifyResumed: s.cfg.VerifyResumed,
		Tracer:        s.cfg.Tracer,
		TraceParent:   jspan,
		Progress:      func(done, total int, st campaign.ShardRunStats) { s.progress(j, done, total, st) },
	})
	j.mu.Lock()
	j.stats = *stats
	j.mu.Unlock()
	if err != nil {
		jspan.SetAttr("error", err.Error())
	}
	jspan.End()
	return err
}

// progress publishes one RunShard progress callback to the job's
// subscribers. The first call, before any run, is the resume jump: a
// resumed job's subscribers see the checkpoint's progress restored in a
// snapshot, with no throughput fields, since nothing has been measured
// yet (see campaign.EstimateETA). Every later call is one newly
// executed run.
func (s *Server) progress(j *Job, done, total int, st campaign.ShardRunStats) {
	if st.Executed == 0 && st.Resumed > 0 {
		s.jobLog(j.ID).Info("resuming checkpoint", "recorded", st.Resumed, "total", total)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total, j.stats = done, total, st
	if st.Executed == 0 {
		if st.Resumed > 0 {
			j.publishLocked(j.eventLocked("snapshot"))
		}
		return
	}
	ev := j.eventLocked("progress")
	if eta, ok := campaign.EstimateETA(total-done, st.FaultsPerSec); ok {
		ev.FaultsPerSec = st.FaultsPerSec
		ev.ETASeconds = eta.Seconds()
	}
	j.publishLocked(ev)
}

// persistTerminal writes the job's terminal manifest, logging a failure:
// the job's status moves on regardless.
func (s *Server) persistTerminal(j *Job, st Status, errMsg string, finished time.Time) {
	if err := s.persistJob(j, st, errMsg, finished); err != nil {
		s.jobLog(j.ID).Error("job state persist failed", "error", err)
	}
}

// persistJob writes the job's state manifest with status st, error
// errMsg and finish time finished, which the job does not show yet. A
// terminal manifest also records the job's run counts.
func (s *Server) persistJob(j *Job, st Status, errMsg string, finished time.Time) error {
	specJSON, err := json.Marshal(&j.Spec)
	if err != nil {
		return err
	}
	js := &trace.JobState{
		ID:          j.ID,
		Spec:        specJSON,
		SpecHash:    j.SpecHash,
		Tenant:      j.Tenant,
		Status:      string(st),
		Error:       errMsg,
		Shard:       j.ShardIndex,
		Shards:      j.ShardCount,
		SubmittedAt: rfc3339(j.submitted),
		FinishedAt:  rfc3339(finished),
	}
	if st.Terminal() {
		j.mu.Lock()
		js.Done, js.Total = j.done, j.total
		j.mu.Unlock()
	}
	return trace.WriteJobState(s.cfg.Dir, js)
}
