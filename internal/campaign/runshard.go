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
	// Progress, when non-nil, is invoked after each newly executed run
	// with the shard-level completion count (resumed runs included), the
	// shard's total run count and a snapshot of the running stats (for
	// live exit-path breakdowns; the snapshot's Complete field is only
	// meaningful on the final call).
	Progress func(done, total int, stats ShardRunStats)
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

// ShardRunStats summarizes one RunShard execution.
type ShardRunStats struct {
	// Total is the shard's run count (End - Start).
	Total int
	// Resumed counts runs found already recorded in the checkpoint and
	// skipped.
	Resumed int
	// Verified counts resumed runs re-executed and matched against
	// their recorded canonical bytes.
	Verified int
	// Executed counts newly executed (and recorded) runs.
	Executed int
	// FastPathHits counts fast-path runs (RunRecord.FastPath) among
	// Executed+Verified.
	FastPathHits int
	// Reconverged counts runs among Executed+Verified whose faults fired
	// and that were ended early by golden-state reconvergence.
	Reconverged int
	// FullSim counts runs among Executed+Verified that simulated their
	// window, drain and horizon end to end (no early exit).
	FullSim int
	// FaultsPerSec is the shard's own live throughput: the runs its
	// campaign completed over the seconds they took, the waits of the
	// whole pool for a golden group left out (rateClock). Zero until a
	// run of this execution completes, whatever the checkpoint resumed.
	FaultsPerSec float64
	// Forked counts runs that warm-started from a golden snapshot above
	// cycle 0. Filled in when the underlying campaign finishes (the
	// per-run callback does not see fork decisions).
	Forked int
	// Complete reports whether the checkpoint now covers the whole
	// shard (and carries its integrity footer).
	Complete bool
}

// RunShard executes a shard, streaming every completed run into the
// checkpoint. completed is the record set ResumeCheckpoint recovered;
// those runs are skipped (after validating they belong to this shard
// fault-for-fault, and re-executing a deterministic sample to prove
// the records reproduce). When the checkpoint ends up covering the
// whole shard, RunShard finalizes it with the integrity footer. A nil
// cp is a run nobody resumes: completed is empty, and nothing is
// validated, verified, appended or finalized.
//
// RunShard hands back the shard's records, the resumed ones and the
// newly executed ones, in no particular order (the whole shard when
// stats.Complete is set), and its stats, on an error too.
//
// Determinism contract: the records a killed-then-resumed shard
// accumulates are canonical-byte-identical to an uninterrupted run's,
// because every run forks from the same warmed base state and nothing
// about resume order feeds back into simulation.
func RunShard(sh *Shard, cp *trace.Checkpoint, completed []trace.RunRecord, o ShardRunOptions) ([]trace.RunRecord, *ShardRunStats, error) {
	stats := &ShardRunStats{Total: sh.End - sh.Start}
	sspan := o.Tracer.Start(o.TraceParent, "shard", fmt.Sprintf("shard[%d/%d]", sh.Index, sh.Count))
	sspan.SetAttr("shard_index", sh.Index)
	sspan.SetAttr("shard_count", sh.Count)
	sspan.SetAttr("run_start", sh.Start)
	sspan.SetAttr("run_end", sh.End)
	defer func() {
		sspan.SetAttr("resumed", stats.Resumed)
		sspan.SetAttr("verified", stats.Verified)
		sspan.SetAttr("executed", stats.Executed)
		sspan.SetAttr("complete", stats.Complete)
		sspan.End()
	}()
	if cp != nil && cp.Finalized() {
		// Nothing to do: a finalized checkpoint was already verified
		// against its footer checksum when it was read back.
		stats.Resumed = len(completed)
		stats.Complete = true
		return completed, stats, nil
	}

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
	// finish marks the shard complete and finalizes its checkpoint.
	finish := func() error {
		stats.Complete = true
		if cp == nil {
			return nil
		}
		return cp.Finalize()
	}
	if len(jobs) == 0 {
		return completed, stats, finish()
	}

	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var firstErr error
	shardDone := stats.Resumed
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
	opts.rate = func(perSec float64) { stats.FaultsPerSec = perSec }
	opts.OnResult = func(r *trace.RunRecord, exit ExitPath) {
		// Serialized by the campaign's progress mutex.
		if firstErr != nil {
			return
		}
		j := jobs[r.Index]
		rec := *r
		rec.Index = j.global
		switch {
		case rec.FastPath:
			stats.FastPathHits++
		case exit == ExitReconverged:
			stats.Reconverged++
		default:
			stats.FullSim++
		}
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
		shardDone++
		if o.Progress != nil {
			o.Progress(shardDone, stats.Total, *stats)
		}
	}
	rep, err := Run(opts)
	if firstErr != nil {
		return records, stats, firstErr
	}
	if err != nil {
		return records, stats, err
	}
	stats.Forked = rep.ForkedRuns
	if stats.Resumed+stats.Executed == stats.Total {
		err = finish()
	}
	return records, stats, err
}
