// Package coordinator dispatches one fault campaign across a fleet of
// nocalertd workers and proves the distributed answer equals the
// single-machine one.
//
// The coordinator plans the campaign as N shards (the same
// campaign.PlanShard partition the CLI's -shard flag uses), submits
// each shard over the workers' HTTP job API, watches every shard's
// NDJSON event stream as its heartbeat, and folds the finalized shard
// checkpoints through campaign.MergeShards — so the merged report is
// byte-identical to an unsharded run, or the merge gate refuses.
//
// Robustness is lease-based. A shard dispatch holds a lease that the
// worker renews with every progress event; a worker that dies (stream
// breaks, probes fail) or hangs (no event within LeaseTimeout) forfeits
// the shard, which is requeued onto a surviving worker with exponential
// backoff + jitter. Submissions are idempotent on (spec, shard) — the
// worker dedupes — so a retried submit after a lost response, or a
// requeue that lands back on the original worker, reattaches to the
// live job instead of doubling work; a worker that restarted from
// SIGKILL resumes its shard from the durable checkpoint through
// RunShard's skip-and-verify path.
package coordinator

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/obs"
	"nocalert/internal/trace"
)

// Config describes the fleet and the dispatch policy. Zero-value
// fields take the defaults noted on each.
type Config struct {
	// Workers are the fleet's base URLs (http://host:port). Required.
	Workers []string
	// Token is the bearer token presented to every worker; "" when the
	// fleet runs without auth.
	Token string
	// Shards is how many slices to plan; default len(Workers).
	Shards int
	// MaxInFlight caps concurrently dispatched shards per worker;
	// default 2.
	MaxInFlight int
	// LeaseTimeout is how long a dispatched shard may go without a
	// progress event before its lease expires and it is requeued;
	// default 30s.
	LeaseTimeout time.Duration
	// RetryBase/RetryMax bound the exponential backoff between retries
	// against a failing worker; defaults 200ms / 5s. Jitter in
	// [0.5,1.5)× is always applied.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxAttempts is how many dispatch attempts one shard gets before
	// the whole run fails; default 6.
	MaxAttempts int
	// DeathThreshold is how many consecutive transient failures mark a
	// worker dead (its slots stop taking shards); default 3.
	DeathThreshold int

	// Tracer/TraceParent thread the dispatch into a span hierarchy:
	// one "coordinator" span for the run, a "dispatch" child per shard
	// attempt. Both optional.
	Tracer      *obs.Tracer
	TraceParent *obs.Span
	// HTTPClient overrides the default client (no global timeout; every
	// request carries a context deadline where one is needed).
	HTTPClient *http.Client
	// Logf, when set, receives one line per dispatch decision.
	Logf func(format string, args ...any)
	// Progress, when set, is called after every fleet progress change.
	Progress func(ProgressUpdate)
	// Seed seeds the backoff jitter; 0 means time-seeded.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = len(c.Workers)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 30 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.DeathThreshold <= 0 {
		c.DeathThreshold = 3
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ProgressUpdate is one campaign-level progress sample, aggregated
// across the fleet with campaign.FleetProgress's monotonicity and
// finite-ETA guarantees.
type ProgressUpdate struct {
	Done, Total        int
	ShardsDone, Shards int
	Rate               float64
	ETA                time.Duration
	ETAOK              bool
}

// WorkerStats is one worker's dispatch tally.
type WorkerStats struct {
	URL        string
	ShardsDone int
	Dead       bool
}

// Stats summarizes the dispatch.
type Stats struct {
	Shards      int
	Requeued    int // dispatches forfeited (lease expiry, worker death) and requeued
	Retries     int // transient retries (submit, stream, checkpoint fetch)
	WorkersDead int
	PerWorker   []WorkerStats
}

// Result is a completed distributed campaign.
type Result struct {
	Merged *campaign.Merged
	Report *campaign.Report
	Stats  Stats
}

// shardTicket is one unit of pending work.
type shardTicket struct {
	index    int
	attempts int
}

// workerState is one fleet member's live dispatch state.
type workerState struct {
	client     *client
	consecFail int
	dead       bool
}

type run struct {
	cfg      Config
	specJSON []byte
	shards   int
	// The plan every returned checkpoint must match: the spec's and its
	// universe's fingerprints and the universe's size, which fixes each
	// shard's [Start, End).
	specHash, universeHash string
	total                  int

	pending chan shardTicket
	doneCh  chan struct{}

	mu       sync.Mutex
	workers  []*workerState
	results  map[int]*trace.CheckpointData
	fleet    campaign.FleetProgress
	stats    Stats
	fatalErr error
	finished bool
	live     int // workers not yet dead

	rng *rand.Rand

	span *obs.Span
}

// Run dispatches spec across the fleet and returns the merged result.
// It blocks until the campaign completes, a shard exhausts its
// attempts, every worker is dead, or ctx is canceled.
func Run(ctx context.Context, spec campaign.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("coordinator: no workers configured")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coordinator: invalid shard count %d", cfg.Shards)
	}
	// Normalize exactly like the workers will, so the planned totals
	// and the spec hash the dedupe keys on agree fleet-wide.
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Plan locally once: validates the shard count against the
	// universe and fixes the campaign-wide total.
	universe := spec.Universe()
	if cfg.Shards > len(universe) {
		return nil, fmt.Errorf("coordinator: %d shards for a %d-fault universe", cfg.Shards, len(universe))
	}
	specJSON, err := specPayload(spec)
	if err != nil {
		return nil, err
	}

	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := &run{
		cfg:          cfg,
		specJSON:     specJSON,
		shards:       cfg.Shards,
		specHash:     spec.Hash(),
		universeHash: campaign.UniverseHash(universe),
		total:        len(universe),
		pending:      make(chan shardTicket, cfg.Shards),
		doneCh:       make(chan struct{}),
		results:      make(map[int]*trace.CheckpointData, cfg.Shards),
		live:         len(cfg.Workers),
		rng:          rand.New(rand.NewSource(seed)),
	}
	r.fleet.SetTotal(len(universe))
	r.stats.Shards = cfg.Shards
	r.stats.PerWorker = make([]WorkerStats, len(cfg.Workers))
	r.workers = make([]*workerState, len(cfg.Workers))
	for i, u := range cfg.Workers {
		r.stats.PerWorker[i].URL = u
		r.workers[i] = &workerState{client: &client{base: u, token: cfg.Token, hc: cfg.HTTPClient}}
	}

	r.span = cfg.Tracer.Start(cfg.TraceParent, "coordinator", "dispatch")
	r.span.SetAttr("shards", cfg.Shards)
	r.span.SetAttr("workers", len(cfg.Workers))
	defer r.span.End()

	for i := 0; i < cfg.Shards; i++ {
		r.pending <- shardTicket{index: i}
	}

	var wg sync.WaitGroup
	for wi := range r.workers {
		for slot := 0; slot < cfg.MaxInFlight; slot++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				r.agent(ctx, wi)
			}(wi)
		}
	}

	select {
	case <-ctx.Done():
		r.fail(ctx.Err())
	case <-r.doneCh:
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.span.SetAttr("requeued", r.stats.Requeued)
	r.span.SetAttr("retries", r.stats.Retries)
	if r.fatalErr != nil {
		r.span.SetAttr("error", r.fatalErr.Error())
		return nil, r.fatalErr
	}

	ordered := make([]*trace.CheckpointData, 0, r.shards)
	for i := 0; i < r.shards; i++ {
		cd, ok := r.results[i]
		if !ok {
			return nil, fmt.Errorf("coordinator: shard %d missing after completion", i)
		}
		ordered = append(ordered, cd)
	}
	merged, err := campaign.MergeShards(ordered)
	if err != nil {
		return nil, fmt.Errorf("coordinator: merge gate refused the fleet's shards: %w", err)
	}
	report, err := merged.Report()
	if err != nil {
		return nil, err
	}
	stats := r.stats
	stats.PerWorker = append([]WorkerStats(nil), r.stats.PerWorker...)
	return &Result{Merged: merged, Report: report, Stats: stats}, nil
}

// agent is one dispatch slot of one worker: it pulls pending shards
// and runs them against its worker until the run ends or the worker is
// declared dead.
func (r *run) agent(ctx context.Context, wi int) {
	w := r.workers[wi]
	for {
		if r.workerDead(wi) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-r.doneCh:
			return
		case t := <-r.pending:
			err := r.dispatch(ctx, wi, t)
			switch {
			case err == nil:
				r.workerOK(wi)
			case ctx.Err() != nil:
				r.requeue(t, "run canceled")
				return
			case isTransient(err):
				r.cfg.Logf("coordinator: shard %d on %s: %v (requeueing)", t.index, w.client.base, err)
				r.requeue(t, err.Error())
				r.workerFailed(ctx, wi)
			default:
				// The request itself is wrong (bad spec, auth). No
				// amount of retrying fixes it.
				r.fail(fmt.Errorf("coordinator: shard %d on %s: %w", t.index, w.client.base, err))
				return
			}
		}
	}
}

// dispatch runs one attempt of one shard on one worker: submit,
// stream events as the lease heartbeat, fetch the finalized
// checkpoint. Every error path returns a transient error (requeue) or
// a permanent one (fail the run).
func (r *run) dispatch(ctx context.Context, wi int, t shardTicket) error {
	w := r.workers[wi]
	span := r.span.Child("dispatch", fmt.Sprintf("shard-%d", t.index))
	span.SetAttr("worker", w.client.base)
	span.SetAttr("attempt", t.attempts+1)
	outcome := "requeued"
	defer func() {
		span.SetAttr("outcome", outcome)
		span.End()
	}()

	v, err := w.client.submitShard(ctx, r.specJSON, t.index, r.shards)
	if err != nil {
		return err
	}
	r.cfg.Logf("coordinator: shard %d/%d -> %s job %s (attempt %d)",
		t.index, r.shards, w.client.base, v.ID, t.attempts+1)
	span.SetAttr("job", v.ID)

	// A dedupe hit on an already-done shard job skips the stream.
	if v.Status != "done" {
		if err := r.watch(ctx, wi, t, v.ID); err != nil {
			return err
		}
	}
	cd, err := r.fetchCheckpoint(ctx, wi, v.ID, t.index)
	if err != nil {
		return err
	}
	if err := r.record(t.index, wi, cd); err != nil {
		return err
	}
	outcome = "done"
	return nil
}

// watch follows the job's event stream until it goes terminal. Every
// event renews the lease; LeaseTimeout of silence forfeits it. A
// broken stream falls back to a status probe: still-running jobs are
// requeued (the idempotent resubmit reattaches), dead workers surface
// as transient connection errors.
func (r *run) watch(ctx context.Context, wi int, t shardTicket, id string) error {
	w := r.workers[wi]
	streamCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	events, err := w.client.events(streamCtx, id)
	if err != nil {
		return err
	}
	lease := time.NewTimer(r.cfg.LeaseTimeout)
	defer lease.Stop()
	for {
		select {
		case <-ctx.Done():
			return transient("run canceled")
		case <-lease.C:
			// Hung worker: best-effort cancel, then requeue.
			cancelCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			w.client.cancel(cancelCtx, id)
			cancel()
			return transient("lease expired: no progress from %s job %s in %s", w.client.base, id, r.cfg.LeaseTimeout)
		case ev, open := <-events:
			if !open {
				// Stream ended. Terminal is normal; anything else means
				// the connection broke — probe once to find out which.
				probeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				v, err := w.client.status(probeCtx, id)
				cancel()
				if err != nil {
					return err
				}
				switch v.Status {
				case "done":
					return nil
				case "failed", "canceled":
					return transient("job %s on %s ended %s: %s", id, w.client.base, v.Status, v.Error)
				default:
					return transient("event stream to %s broke with job %s still %s", w.client.base, id, v.Status)
				}
			}
			lease.Reset(r.cfg.LeaseTimeout)
			r.progress(t.index, ev.Done, ev.Total, ev.FaultsPerSec)
			if ev.Status == "done" {
				return nil
			}
			if ev.Status == "failed" || ev.Status == "canceled" {
				return transient("job %s on %s ended %s: %s", id, w.client.base, ev.Status, ev.Error)
			}
		}
	}
}

// fetchCheckpoint pulls the finalized checkpoint of shard index,
// retrying transient fetch failures in place with backoff. It reads no
// more than the shard can take: the manifest with the spec it embeds, one
// record line per fault of the shard, and the footer.
func (r *run) fetchCheckpoint(ctx context.Context, wi int, id string, index int) (*trace.CheckpointData, error) {
	w := r.workers[wi]
	lo, hi := campaign.ShardRange(r.total, index, r.shards)
	limit := int64(len(r.specJSON)) + checkpointSlack + int64(hi-lo)*maxRecordBytes
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			r.countRetry()
			if !r.sleep(ctx, r.backoff(attempt)) {
				return nil, transient("run canceled")
			}
		}
		cd, err := w.client.checkpoint(ctx, id, limit)
		if err == nil {
			return cd, nil
		}
		if !isTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// record stores a completed shard's checkpoint, guarding against the
// duplicate-completion race (two workers finishing the same requeued
// shard both produce identical records; first in wins). A checkpoint that
// is not the one dispatched — another shard, another spec or universe,
// another range of the universe — is refused with a transient error, so
// the shard is requeued: MergeShards checks the shards against each other
// only, and would merge another campaign's checkpoints into its report.
func (r *run) record(index, wi int, cd *trace.CheckpointData) error {
	m := &cd.Manifest
	lo, hi := campaign.ShardRange(r.total, index, r.shards)
	if m.Shard != index || m.Shards != r.shards || m.SpecHash != r.specHash ||
		m.UniverseHash != r.universeHash || m.Start != lo || m.End != hi {
		return transient("coordinator: worker returned shard %d/%d of spec %s, universe %s, faults [%d,%d); dispatched %d/%d of %s, %s, [%d,%d)",
			m.Shard, m.Shards, m.SpecHash, m.UniverseHash, m.Start, m.End,
			index, r.shards, r.specHash, r.universeHash, lo, hi)
	}
	r.mu.Lock()
	if _, dup := r.results[index]; !dup {
		r.results[index] = cd
		r.stats.PerWorker[wi].ShardsDone++
		r.fleet.Finish(index)
		done := len(r.results) == r.shards
		r.publishProgressLocked()
		if done && !r.finished {
			r.finished = true
			close(r.doneCh)
		}
	}
	r.mu.Unlock()
	return nil
}

// progress folds one shard event into the fleet aggregate.
func (r *run) progress(shard, done, total int, rate float64) {
	r.mu.Lock()
	r.fleet.Update(shard, done, total, rate)
	r.publishProgressLocked()
	r.mu.Unlock()
}

// publishProgressLocked pushes the aggregate to the Progress callback.
// Caller holds r.mu.
func (r *run) publishProgressLocked() {
	if r.cfg.Progress == nil {
		return
	}
	eta, ok := r.fleet.ETA()
	r.cfg.Progress(ProgressUpdate{
		Done: r.fleet.Done(), Total: r.fleet.Total(),
		ShardsDone: len(r.results), Shards: r.shards,
		Rate: r.fleet.Rate(), ETA: eta, ETAOK: ok,
	})
}

// requeue puts a forfeited shard back on the queue, or fails the run
// when the shard is out of attempts. The pending channel holds
// r.shards entries and a shard is never queued twice concurrently, so
// the send cannot block.
func (r *run) requeue(t shardTicket, why string) {
	r.mu.Lock()
	if _, alreadyDone := r.results[t.index]; alreadyDone || r.finished {
		r.mu.Unlock()
		return
	}
	t.attempts++
	r.stats.Requeued++
	out := t.attempts >= r.cfg.MaxAttempts
	r.mu.Unlock()
	if out {
		r.fail(fmt.Errorf("coordinator: shard %d failed %d dispatch attempts (last: %s)", t.index, t.attempts, why))
		return
	}
	r.pending <- t
}

// fail records the first fatal error and releases Run.
func (r *run) fail(err error) {
	r.mu.Lock()
	if !r.finished {
		r.finished = true
		if r.fatalErr == nil {
			r.fatalErr = err
		}
		close(r.doneCh)
	}
	r.mu.Unlock()
}

// workerOK resets the worker's consecutive-failure streak.
func (r *run) workerOK(wi int) {
	r.mu.Lock()
	r.workers[wi].consecFail = 0
	r.mu.Unlock()
}

// workerFailed counts a transient failure against the worker, sleeps
// the backoff, and declares the worker dead past DeathThreshold. When
// the last live worker dies the run fails — there is nobody left to
// requeue onto.
func (r *run) workerFailed(ctx context.Context, wi int) {
	r.mu.Lock()
	w := r.workers[wi]
	w.consecFail++
	fails := w.consecFail
	justDied := !w.dead && fails >= r.cfg.DeathThreshold
	if justDied {
		w.dead = true
		r.stats.WorkersDead++
		r.stats.PerWorker[wi].Dead = true
		r.live--
		noneLeft := r.live == 0
		r.mu.Unlock()
		r.cfg.Logf("coordinator: worker %s declared dead after %d consecutive failures", w.client.base, fails)
		r.span.SetAttr(fmt.Sprintf("worker%d_dead", wi), true)
		if noneLeft {
			r.fail(fmt.Errorf("coordinator: all %d workers dead", len(r.workers)))
		}
		return
	}
	r.mu.Unlock()
	r.countRetry()
	r.sleep(ctx, r.backoff(fails))
}

func (r *run) workerDead(wi int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers[wi].dead
}

func (r *run) countRetry() {
	r.mu.Lock()
	r.stats.Retries++
	r.mu.Unlock()
}

// backoff is the exponential retry delay with [0.5,1.5)× jitter, so a
// fleet of slots hammering one sick worker decorrelates.
func (r *run) backoff(attempt int) time.Duration {
	d := r.cfg.RetryBase << uint(attempt-1)
	if d > r.cfg.RetryMax || d <= 0 {
		d = r.cfg.RetryMax
	}
	r.mu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// sleep waits d or until ctx/run end; reports false when interrupted.
func (r *run) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-r.doneCh:
		return false
	}
}
