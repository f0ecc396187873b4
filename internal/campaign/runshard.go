package campaign

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"nocalert/internal/fault"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/rng"
	"nocalert/internal/trace"
)

// shardVerifyTag salts the derived RNG stream that picks which
// already-recorded runs a resume re-executes for verification.
const shardVerifyTag = 0x5e71f7

// DefaultVerifyResumed is how many already-recorded runs a resume
// re-executes and compares against the checkpoint by default.
const DefaultVerifyResumed = 2

// ShardRunOptions configures RunShard's execution knobs — everything
// that may differ between two executions of the same shard without
// affecting its results.
type ShardRunOptions struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// FullSim runs every fault on the full-simulation reference path (see
	// Options.FullSim). Result-invisible either way — the identity CI
	// gate holds this to byte-identical reports.
	FullSim bool
	// GoldenCache, when non-nil, shares the golden warm-up with the other
	// shards and jobs run off the same cache (see Options.GoldenCache).
	GoldenCache *GoldenCache
	// Progress, when non-nil, is invoked once before the first run,
	// with the resumed runs done (Executed is 0), and then after each
	// newly executed run, with a snapshot of the running stats.
	Progress func(stats ShardRunStats)
	// Metrics, when non-nil, receives the campaign telemetry.
	Metrics *metrics.Registry
	// Context cancels the shard cooperatively; completed runs are
	// already durable in the checkpoint when RunShard returns the
	// context's error.
	Context context.Context
	// VerifyResumed is how many already-recorded runs to re-execute and
	// compare against the checkpoint when resuming: deterministic
	// re-execution is what makes a partial checkpoint trustworthy. 0
	// means DefaultVerifyResumed; -1 disables verification. The sample
	// is drawn from a stream derived from (seed, shard) so it does not
	// depend on how many times the shard was interrupted.
	VerifyResumed int
	// Tracer, when non-nil, wraps the shard's campaign in a shard span
	// (parented to TraceParent — typically the daemon's job span) so
	// the job → shard → run correlation ID threads end to end.
	Tracer *obs.Tracer
	// TraceParent optionally parents the shard span.
	TraceParent *obs.Span
}

// ShardRunStats summarizes one RunShard execution. Its JSON form is the
// progress part of a daemon job's view.
type ShardRunStats struct {
	// Done counts the shard's recorded runs, Resumed + Executed.
	Done int `json:"done"`
	// Total is the shard's run count (End - Start).
	Total int `json:"total"`
	// Resumed counts runs found already recorded in the checkpoint and
	// skipped.
	Resumed int `json:"resumed,omitempty"`
	// Verified counts resumed runs re-executed and matched against
	// their recorded canonical bytes.
	Verified int `json:"verified,omitempty"`
	// Executed counts newly executed (and recorded) runs.
	Executed int `json:"executed,omitempty"`
	// RunCounts sums the exit paths and cycles of the runs among
	// Executed+Verified, run by run as they complete.
	RunCounts
	// FaultsPerSec is the shard's own live throughput: the runs its
	// campaign completed over the seconds they took, the waits of the
	// whole pool for a golden group left out (rateClock). Zero until a
	// run of this execution completes, whatever the checkpoint resumed;
	// always finite.
	FaultsPerSec float64 `json:"faults_per_sec,omitempty"`
}

// RunShard executes shard i of n of the spec, 0/1 being the whole
// campaign. When path names a checkpoint the shard's records are kept
// there: a missing one is created; an existing one is resumed, its
// records validated against the plan fault for fault and a
// deterministic sample of them re-executed to prove they reproduce;
// every newly executed run is appended; the checkpoint is finalized
// with its integrity footer once it covers the shard, and closed on
// every return. An empty path is a run nobody resumes: nothing is
// validated, verified, appended or finalized.
//
// RunShard hands back the shard's records, the resumed ones and the
// newly executed ones, in no particular order, and its stats, on an
// error too. A nil error means every run of the shard is recorded.
//
// Determinism contract: the records a killed-then-resumed shard
// accumulates are canonical-byte-identical to an uninterrupted run's,
// because every run forks from the same warmed base state and nothing
// about resume order feeds back into simulation.
func RunShard(spec Spec, i, n int, path string, o ShardRunOptions) (_ []trace.RunRecord, stats *ShardRunStats, err error) {
	stats = &ShardRunStats{}
	sh, err := PlanShard(spec, i, n)
	if err != nil {
		return nil, stats, err
	}
	stats.Total = sh.End - sh.Start
	var cp *trace.Checkpoint
	var completed []trace.RunRecord
	if path != "" {
		var m *trace.Manifest
		if m, err = sh.Manifest(); err != nil {
			return nil, stats, err
		}
		if cp, completed, err = trace.ResumeCheckpoint(path, m); err != nil {
			return nil, stats, err
		}
		defer func() {
			if cerr := cp.Close(); err == nil {
				err = cerr
			}
		}()
	}
	sspan := o.Tracer.Start(o.TraceParent, "shard", fmt.Sprintf("shard[%d/%d]", sh.Index, sh.Count))
	sspan.SetAttr("shard_index", sh.Index)
	sspan.SetAttr("shard_count", sh.Count)
	sspan.SetAttr("run_start", sh.Start)
	sspan.SetAttr("run_end", sh.End)
	defer func() {
		sspan.SetAttr("resumed", stats.Resumed)
		sspan.SetAttr("verified", stats.Verified)
		sspan.SetAttr("executed", stats.Executed)
		sspan.SetAttr("complete", err == nil)
		sspan.End()
	}()

	// Validate the recovered records: in range, no duplicates, and each
	// one's fault identity matching the planned universe slice. Any
	// mismatch means the checkpoint belongs to different code or data
	// and must not be silently extended.
	recorded := make(map[int]*trace.RunRecord, len(completed))
	for i := range completed {
		rec := &completed[i]
		if rec.Index < sh.Start || rec.Index >= sh.End {
			return nil, stats, fmt.Errorf("campaign: checkpoint record index %d outside shard range [%d,%d)",
				rec.Index, sh.Start, sh.End)
		}
		if _, dup := recorded[rec.Index]; dup {
			return nil, stats, fmt.Errorf("campaign: checkpoint has duplicate record for index %d", rec.Index)
		}
		f := &sh.Faults[rec.Index-sh.Start]
		if !recordDescribes(rec, f) {
			return nil, stats, fmt.Errorf("campaign: checkpoint record %d describes fault %s.bit%d, shard plan has %v",
				rec.Index, rec.Signal, rec.Bit, f)
		}
		recorded[rec.Index] = rec
	}
	stats.Resumed = len(recorded)
	stats.Done = stats.Resumed
	if o.Progress != nil {
		o.Progress(*stats)
	}
	if cp != nil && cp.Finalized() {
		// Nothing to run: a finalized checkpoint was already verified
		// against its footer checksum when it was read back.
		return completed, stats, nil
	}

	// Deterministic re-execution sample: which recorded runs to replay
	// and compare. The stream is derived from (seed, shard coordinates)
	// alone, so the choice is reproducible and independent of resume
	// count or record order.
	verifyCount := o.VerifyResumed
	if verifyCount == 0 {
		verifyCount = DefaultVerifyResumed
	}
	if verifyCount < 0 {
		verifyCount = 0
	}
	if verifyCount > len(recorded) {
		verifyCount = len(recorded)
	}
	verifyIdx := make(map[int]bool, verifyCount)
	if verifyCount > 0 {
		sorted := make([]int, 0, len(recorded))
		for idx := range recorded {
			sorted = append(sorted, idx)
		}
		// Map iteration order is random; sort before drawing so the
		// derived stream picks the same runs every time.
		sort.Ints(sorted)
		g := rng.NewDerived(sh.Spec.Seed, shardVerifyTag, uint64(sh.Index), uint64(sh.Count))
		for _, p := range g.Perm(len(sorted))[:verifyCount] {
			verifyIdx[sorted[p]] = true
		}
	}

	// One campaign run covers both the verification replays and the
	// pending remainder, so the golden warmup is paid once.
	type job struct {
		global int
		verify bool
	}
	var jobs []job
	var faults []fault.Fault
	for k := range sh.Faults {
		global := sh.Start + k
		if _, done := recorded[global]; done {
			if verifyIdx[global] {
				jobs = append(jobs, job{global, true})
				faults = append(faults, sh.Faults[k])
			}
			continue
		}
		jobs = append(jobs, job{global, false})
		faults = append(faults, sh.Faults[k])
	}
	if len(jobs) == 0 {
		return completed, stats, finalize(cp)
	}

	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var firstErr error
	records := append(make([]trace.RunRecord, 0, stats.Total), completed...)
	opts := sh.Spec.Options()
	opts.Faults = faults
	opts.Workers = o.Workers
	opts.FullSim = o.FullSim
	opts.GoldenCache = o.GoldenCache
	opts.Metrics = o.Metrics
	opts.Context = ctx
	opts.Tracer = o.Tracer
	opts.TraceParent = sspan
	opts.OnResult = func(r *trace.RunRecord, c RunCounts, faultsPerSec float64) {
		// Serialized by the campaign's progress mutex.
		if firstErr != nil {
			return
		}
		j := jobs[r.Index]
		rec := *r
		rec.Index = j.global
		stats.RunCounts.Add(c)
		stats.FaultsPerSec = faultsPerSec
		if j.verify {
			stats.Verified++
			want := recorded[j.global]
			if !bytes.Equal(rec.CanonicalBytes(), want.CanonicalBytes()) {
				firstErr = fmt.Errorf("campaign: checkpoint diverges from deterministic re-execution at index %d:\n  recorded: %s\n  replayed: %s",
					j.global, want.CanonicalBytes(), rec.CanonicalBytes())
				cancel()
			}
			return
		}
		if cp != nil {
			if err := cp.Append(&rec); err != nil {
				firstErr = fmt.Errorf("campaign: checkpoint append: %w", err)
				cancel()
				return
			}
		}
		records = append(records, rec)
		stats.Executed++
		stats.Done++
		if o.Progress != nil {
			o.Progress(*stats)
		}
	}
	_, err = Run(opts)
	if firstErr != nil {
		return records, stats, firstErr
	}
	if err != nil {
		return records, stats, err
	}
	if stats.Done != stats.Total {
		return records, stats, fmt.Errorf("campaign: shard %d/%d recorded %d of its %d runs",
			sh.Index, sh.Count, stats.Done, stats.Total)
	}
	return records, stats, finalize(cp)
}

// finalize writes cp's integrity footer; a nil cp keeps no records.
func finalize(cp *trace.Checkpoint) error {
	if cp == nil {
		return nil
	}
	return cp.Finalize()
}
