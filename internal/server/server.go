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
	// Jobs of one spec and shard wait on one: two tenants' jobs, and two
	// whole-campaign jobs recovered from a state directory older than the
	// shard identity. The later one resumes what the earlier recorded.
	writers sync.Map // path → *sync.Mutex

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
	// gauges counts the jobs in each status that has a gauge.
	gauges map[Status]*metrics.Gauge
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
		gauges: map[Status]*metrics.Gauge{
			StatusQueued:  cfg.Registry.Gauge(MetricJobsQueued),
			StatusRunning: cfg.Registry.Gauge(MetricJobsRunning),
		},
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

// recover rebuilds the job table from the state directory. A terminal
// job is loaded as its manifest says; an unfinished one, and a done one
// whose checkpoint, its only product, is gone, is queued again.
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
		j := newJob(js.ID, js.Tenant, spec, js.Shard, shards, parseRFC3339(js.SubmittedAt), statusRecovered)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if js.Status == trace.JobQueued {
			requeue = append(requeue, j)
			continue
		}
		if js.Status == trace.JobDone {
			if _, err := os.Stat(s.checkpointPath(j)); err != nil {
				requeue = append(requeue, j)
				continue
			}
			if js.Total > 0 {
				j.stats.Done, j.stats.Total = js.Done, js.Total
			} else {
				j.stats.Done = j.stats.Total
			}
		}
		j.status, j.errMsg, j.finished, j.closed = Status(js.Status), js.Error, parseRFC3339(js.FinishedAt), true
	}
	if len(requeue) > s.cfg.QueueSize {
		return fmt.Errorf("server: %d unfinished jobs to recover, queue holds %d — raise QueueSize", len(requeue), s.cfg.QueueSize)
	}
	for _, j := range requeue {
		s.transition(j, statusRecovered, StatusQueued, "")
		s.queue.push(j)
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

// parseRFC3339 reads a manifest's time; a missing or bad one is zero.
func parseRFC3339(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// ErrQueueFull is returned (and mapped to 429) when the submission
// queue is at capacity.
var ErrQueueFull = errors.New("server: job queue is full")

// errDraining is returned when the daemon is shutting down.
var errDraining = errors.New("server: draining, not accepting jobs")

// errCanceled is the cause Cancel cancels a running job's context with,
// which tells a user's cancel from a drain.
var errCanceled = errors.New("server: job canceled")

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
// idempotent on the job's identity, (tenant, spec hash, shard, shards):
// when a queued, running or done job of the same identity already exists,
// that job is returned with existing=true instead of queueing a duplicate —
// which is what lets a client retry a submit over a flaky link (or a
// coordinator re-dispatch after its own restart) without doubling work.
// Another tenant's identical submit is a job of its own, charged to its
// quota; the two share the shard's checkpoint, so the later one to run
// resumes what the earlier recorded.
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
	specHash, active := spec.Hash(), 0 // the tenant's queued and running jobs
	for _, id := range s.order {
		cand := s.jobs[id]
		if cand.Tenant != o.Tenant {
			continue
		}
		cand.mu.Lock()
		st := cand.status
		cand.mu.Unlock()
		if !st.Terminal() {
			active++
		}
		// Failed and canceled attempts do not block a retry; their
		// partial checkpoint is resumed by the new job.
		if cand.SpecHash != specHash || cand.ShardIndex != o.Shard || cand.ShardCount != o.Shards ||
			st == StatusFailed || st == StatusCanceled {
			continue
		}
		s.mu.Unlock()
		s.jobLog(cand.ID).Info("submit deduplicated onto existing job",
			"spec", specHash, "shard", o.Shard, "shards", o.Shards, "status", st)
		return cand, true, nil
	}
	if s.cfg.TenantQuota > 0 && active >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.mQuotaDenied.Inc()
		return nil, false, ErrQuotaExceeded
	}
	// Only a submit pushes, under s.mu: a queue with room now has room
	// at the push below.
	if s.queue.full() {
		s.mu.Unlock()
		s.mRejected.Inc()
		return nil, false, ErrQueueFull
	}
	j = newJob(newJobID(), o.Tenant, spec, o.Shard, o.Shards, time.Now(), statusNew)
	// The manifest must be durable before the job is visible or
	// runnable: a daemon killed right after the 201 response still
	// knows the job on restart.
	if err := s.persistJob(j, StatusQueued, "", time.Time{}); err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.transition(j, statusNew, StatusQueued, "")
	s.queue.push(j)
	s.mu.Unlock()
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
	jobs := make([]*Job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]View, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Cancel requests cancellation. A queued job goes terminal immediately
// and leaves the queue; a running one is canceled cooperatively (its
// completed runs stay durable in the checkpoint). Terminal jobs return
// an error.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("server: no job %s", id)
	}
	for {
		if s.transition(j, StatusQueued, StatusCanceled, "") {
			s.queue.remove(j)
			return nil
		}
		j.mu.Lock()
		st := j.status
		if st == StatusRunning {
			j.cancelRun(errCanceled)
		}
		j.mu.Unlock()
		switch {
		case st.Terminal():
			return fmt.Errorf("server: job %s is already %s", id, st)
		case st == StatusRunning:
			return nil
		}
		// Queued again: a drain took it off its worker meanwhile.
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
// notify channel when it is empty. A draining worker takes no new job.
func (s *Server) worker() {
	defer s.wg.Done()
	for s.baseCtx.Err() == nil {
		if j := s.queue.pop(); j != nil {
			s.runJob(j)
			continue
		}
		select {
		case <-s.baseCtx.Done():
		case <-s.queue.notify:
		}
	}
}

// runJob executes one job end to end against its durable checkpoint,
// after any other job of its checkpoint.
func (s *Server) runJob(j *Job) {
	w, _ := s.writers.LoadOrStore(s.checkpointPath(j), new(sync.Mutex))
	w.(*sync.Mutex).Lock()
	defer w.(*sync.Mutex).Unlock()

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	// Set before the job shows running, so a Cancel that sees it running
	// reaches the run.
	j.mu.Lock()
	j.cancelRun = cancel
	j.mu.Unlock()
	if !s.transition(j, StatusQueued, StatusRunning, "") {
		return // canceled while queued
	}

	switch err := s.execute(ctx, j); {
	case err == nil:
		s.transition(j, StatusRunning, StatusDone, "")
	case context.Cause(ctx) == errCanceled && errors.Is(err, context.Canceled):
		s.transition(j, StatusRunning, StatusCanceled, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Daemon drain, not a user cancel: the job stays durable as
		// queued and resumes on the next start. In-memory it goes back
		// to queued too, for a truthful /v1/jobs during shutdown.
		s.transition(j, StatusRunning, StatusQueued, "")
	default:
		s.transition(j, StatusRunning, StatusFailed, err.Error())
	}
}

// execute runs the job's shard against its checkpoint, resuming what
// an earlier attempt left there, and keeps the stats RunShard returns.
// Any error leaves the checkpoint consistent for the next attempt. When
// tracing is on the whole execution runs under a job span, the root of
// the job → shard → run hierarchy RunShard and the campaign extend.
func (s *Server) execute(ctx context.Context, j *Job) error {
	jspan := s.cfg.Tracer.Start(nil, "job", "job["+j.ID+"]")
	jspan.SetAttr("job_id", j.ID)
	jspan.SetAttr("spec_hash", j.SpecHash)
	_, stats, err := campaign.RunShard(j.Spec, j.ShardIndex, j.ShardCount, s.checkpointPath(j), campaign.ShardRunOptions{
		Exec: campaign.Exec{
			Workers:     s.cfg.CampaignWorkers,
			GoldenCache: s.golden,
			Metrics:     s.reg,
			Context:     ctx,
			Tracer:      s.cfg.Tracer,
			TraceParent: jspan,
		},
		VerifyResumed: s.cfg.VerifyResumed,
		Progress:      func(st campaign.ShardRunStats) { s.progress(j, st) },
	})
	j.mu.Lock()
	if stats.Total > 0 { // else the shard was not planned
		j.stats = *stats
	}
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
func (s *Server) progress(j *Job, st campaign.ShardRunStats) {
	if st.Executed == 0 && st.Resumed > 0 {
		s.jobLog(j.ID).Info("resuming checkpoint", "recorded", st.Resumed, "total", st.Total)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats = st
	if st.Executed == 0 {
		if st.Resumed > 0 {
			j.publishLocked(j.eventLocked("snapshot"))
		}
		return
	}
	ev := j.eventLocked("progress")
	if eta, ok := campaign.EstimateETA(st.Total-st.Done, st.FaultsPerSec); ok {
		ev.FaultsPerSec = st.FaultsPerSec
		ev.ETASeconds = eta.Seconds()
	}
	j.publishLocked(ev)
}

// transition is the one place a job's status changes. It moves j from
// status from to status to and reports whether it did; a job no longer
// in status from (Cancel and a worker race for a queued job) is left
// alone. In this order it writes the manifest of a terminal status, so
// whoever sees the job over finds it so on disk; the job's fields; the
// event announcing the status; the closed hub of a terminal job; the
// queued and running gauges; the job counter; the log line.
func (s *Server) transition(j *Job, from, to Status, errMsg string) bool {
	j.mu.Lock()
	if j.status != from {
		j.mu.Unlock()
		return false
	}
	now := time.Now()
	if to.Terminal() {
		if err := s.persistJob(j, to, errMsg, now); err != nil {
			s.jobLog(j.ID).Error("job state persist failed", "error", err)
		}
	}
	j.status, j.errMsg = to, errMsg
	if to == StatusRunning {
		j.started = now
	}
	if !to.Terminal() {
		j.publishLocked(j.eventLocked("snapshot"))
	} else {
		j.finished = now
		j.stats.FaultsPerSec = 0 // the live throughput is over
		j.publishLocked(j.eventLocked("status"))
		j.closeHubLocked()
	}
	if g := s.gauges[from]; g != nil {
		g.Add(-1)
	}
	if g := s.gauges[to]; g != nil {
		g.Add(1)
	}
	log := s.jobLog(j.ID)
	switch {
	case from == statusNew:
		s.mSubmitted.Inc()
		log.Info("job queued", "spec", j.SpecHash, "faults", j.Spec.NumFaults,
			"tenant", j.Tenant, "shard", j.ShardIndex, "shards", j.ShardCount)
	case from == statusRecovered:
		s.mRecovered.Inc()
		log.Info("job recovered as queued", "spec", j.SpecHash)
	case to == StatusRunning:
		log.Info("job running")
	case to == StatusQueued:
		log.Info("job interrupted by drain; checkpoint keeps completed runs", "done", j.stats.Done)
	case to == StatusDone:
		s.mDone.Inc()
		log.Info("job finished", "status", to)
	case to == StatusFailed:
		s.mFailed.Inc()
		log.Error("job failed", "error", errMsg)
	default:
		s.mCanceled.Inc()
		log.Info("job finished", "status", to, "was", from)
	}
	j.mu.Unlock()
	return true
}

// persistJob writes the job's state manifest with status st, error
// errMsg and finish time finished. A terminal manifest also records the
// job's run counts. The caller holds j.mu, or j is not in the table yet.
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
		js.Done, js.Total = j.stats.Done, j.stats.Total
	}
	return trace.WriteJobState(s.cfg.Dir, js)
}
