// Package coordinator dispatches one fault campaign across a fleet of
// nocalertd workers and proves the distributed answer equals the
// single-machine one.
//
// The coordinator plans the campaign as N shards (the same
// campaign.PlanShards partition the CLI's -shard flag uses), submits
// each shard over the workers' HTTP job API, watches every shard's
// NDJSON event stream as its heartbeat, checks each finalized shard
// checkpoint it fetches against its planned shard (campaign.Shard.Check,
// a dispatch's only gate), and places the gated records into one
// campaign.Merged — so the merged report is byte-identical to an
// unsharded run, or the gate refuses the shard and it is requeued.
//
// Robustness is lease-based. A shard dispatch holds a lease that the
// worker renews with every progress event; a worker that dies (stream
// breaks, probes fail) or hangs (no event within LeaseTimeout) forfeits
// the shard, which is requeued onto a surviving worker with exponential
// backoff + jitter. Submissions are idempotent on (spec, shard), a
// one-shard dispatch's included — the worker dedupes every job on its
// spec hash and shard — so a retried submit after a lost response, a
// requeue that lands back on the original worker, or a re-run dispatch
// reattaches to the live or done job instead of doubling work; a worker
// that restarted from SIGKILL resumes its shard from the durable
// checkpoint through RunShard's skip-and-verify path.
package coordinator

import (
	"context"
	"fmt"
	"math"
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

	// Tracer, when set, records the dispatch as a span tree: one root
	// "coordinator" span for the run, a "dispatch" child per shard
	// attempt.
	Tracer *obs.Tracer
	// Logf, when set, receives one line per dispatch decision.
	Logf func(format string, args ...any)
	// Progress, when set, is called with the fleet's progress after it
	// changes, from a goroutine of its own, so no dispatch slot waits on
	// it: updates arrive in order, one that lands while the last is still
	// being handled replaces any older one not yet delivered, and the
	// last reaches Progress before Run returns.
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
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ProgressUpdate is one campaign-level progress sample, folded from
// the shards' events: Done never goes down when a shard is requeued,
// Rate is always finite, and there is no ETA once every shard is
// merged.
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
	// plan is every shard of the campaign, cut from one expansion of its
	// universe; a fetched checkpoint must pass its shard's gate
	// (campaign.Shard.Check). total is the universe's size.
	plan  []*campaign.Shard
	total int

	pending chan shardTicket
	doneCh  chan struct{}

	mu      sync.Mutex
	workers []*workerState
	results map[int]*trace.CheckpointData
	// Per shard, the high-water run count its events reported (a
	// requeued shard restarting at 0 keeps it; a merged one holds its
	// planned size) and its last finite positive faults/sec sample (0
	// when it has none).
	done     []int
	rate     []float64
	stats    Stats
	fatalErr error
	finished bool
	live     int // workers not yet dead

	// next is the fleet progress not yet handed to Config.Progress
	// (unsent says there is one); delivering says a deliver goroutine
	// runs, which delivered counts.
	next       ProgressUpdate
	unsent     bool
	delivering bool
	delivered  sync.WaitGroup

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
	// Plan every shard once, after bounding the shard count by the
	// universe: the plan fixes the campaign-wide total and gates every
	// checkpoint a worker returns.
	if size := spec.UniverseSize(); cfg.Shards > size {
		return nil, fmt.Errorf("coordinator: %d shards for a %d-fault universe", cfg.Shards, size)
	}
	plan, err := campaign.PlanShards(spec, cfg.Shards)
	if err != nil {
		return nil, err
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
		cfg:      cfg,
		specJSON: specJSON,
		plan:     plan,
		total:    plan[len(plan)-1].End,
		pending:  make(chan shardTicket, cfg.Shards),
		doneCh:   make(chan struct{}),
		results:  make(map[int]*trace.CheckpointData, cfg.Shards),
		done:     make([]int, cfg.Shards),
		rate:     make([]float64, cfg.Shards),
		live:     len(cfg.Workers),
		rng:      rand.New(rand.NewSource(seed)),
	}
	r.stats.Shards = cfg.Shards
	r.stats.PerWorker = make([]WorkerStats, len(cfg.Workers))
	r.workers = make([]*workerState, len(cfg.Workers))
	for i, u := range cfg.Workers {
		r.stats.PerWorker[i].URL = u
		r.workers[i] = &workerState{client: &client{base: u, token: cfg.Token, hc: &http.Client{}}}
	}

	r.span = cfg.Tracer.Start(nil, "coordinator", "dispatch")
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
	r.delivered.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.span.SetAttr("requeued", r.stats.Requeued)
	r.span.SetAttr("retries", r.stats.Retries)
	if r.fatalErr != nil {
		r.span.SetAttr("error", r.fatalErr.Error())
		return nil, r.fatalErr
	}

	// The run finished with every shard recorded, each past its planned
	// shard's gate at fetch, so the records go into place as they are.
	merged := &campaign.Merged{Spec: spec, Shards: len(r.plan), Records: make([]trace.RunRecord, r.total)}
	for _, cd := range r.results {
		for _, rec := range cd.Records {
			merged.Records[rec.Index] = rec
		}
	}
	stats := r.stats
	stats.PerWorker = append([]WorkerStats(nil), r.stats.PerWorker...)
	return &Result{Merged: merged, Report: merged.Report(), Stats: stats}, nil
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

	v, err := w.client.submitShard(ctx, r.specJSON, t.index, len(r.plan))
	if err != nil {
		return err
	}
	r.cfg.Logf("coordinator: shard %d/%d -> %s job %s (attempt %d)",
		t.index, len(r.plan), w.client.base, v.ID, t.attempts+1)
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
			r.progress(t.index, ev.Done, ev.FaultsPerSec)
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
	sh := r.plan[index]
	limit := int64(len(r.specJSON)) + checkpointSlack + int64(sh.End-sh.Start)*maxRecordBytes
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
// fails the gate of the shard dispatched — another shard, campaign or
// range, or a record that is not the run the plan has at its index — is
// refused with a transient error, so the shard is requeued.
func (r *run) record(index, wi int, cd *trace.CheckpointData) error {
	sh := r.plan[index]
	if err := sh.Check(&cd.Manifest, cd.Records, true); err != nil {
		return transient("the checkpoint returned is not the shard dispatched %d/%d: %v", index, len(r.plan), err)
	}
	r.mu.Lock()
	if _, dup := r.results[index]; !dup {
		r.results[index] = cd
		r.stats.PerWorker[wi].ShardsDone++
		r.done[index], r.rate[index] = sh.End-sh.Start, 0
		done := len(r.results) == len(r.plan)
		r.publishProgressLocked()
		if done && !r.finished {
			r.finished = true
			close(r.doneCh)
		}
	}
	r.mu.Unlock()
	return nil
}

// progress folds one shard event into the fleet's progress. A done
// count below the shard's high-water mark (a requeued shard starting
// over) is ignored; a rate that is not finite and positive (a resumed
// shard replaying its checkpoint in no time) retires the shard's sample.
func (r *run) progress(shard, done int, rate float64) {
	r.mu.Lock()
	r.done[shard] = max(r.done[shard], done)
	if rate > 0 && !math.IsInf(rate, 1) {
		r.rate[shard] = rate
	} else {
		r.rate[shard] = 0
	}
	r.publishProgressLocked()
	r.mu.Unlock()
}

// publishProgressLocked leaves the fleet's progress for the Progress
// callback and starts the goroutine that delivers it if none runs.
// Caller holds r.mu.
func (r *run) publishProgressLocked() {
	if r.cfg.Progress == nil {
		return
	}
	done, rate := 0, 0.0
	for i := range r.done {
		done += r.done[i]
		rate += r.rate[i]
	}
	eta, ok := campaign.EstimateETA(r.total-done, rate)
	r.next = ProgressUpdate{
		Done: done, Total: r.total,
		ShardsDone: len(r.results), Shards: len(r.plan),
		Rate: rate, ETA: eta, ETAOK: ok,
	}
	r.unsent = true
	if !r.delivering {
		r.delivering = true
		r.delivered.Add(1)
		go r.deliver()
	}
}

// deliver calls Progress with the newest update until none is left,
// outside r.mu.
func (r *run) deliver() {
	defer r.delivered.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.unsent {
		u := r.next
		r.unsent = false
		r.mu.Unlock()
		r.cfg.Progress(u)
		r.mu.Lock()
	}
	r.delivering = false
}

// requeue puts a forfeited shard back on the queue, or fails the run
// when the shard is out of attempts. The pending channel holds
// len(r.plan) entries and a shard is never queued twice concurrently, so
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
