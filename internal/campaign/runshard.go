package campaign

import (
	"bytes"
	"context"
	"fmt"

	"nocalert/internal/fault"
	"nocalert/internal/rng"
	"nocalert/internal/trace"
)

// shardVerifyTag salts the derived RNG stream that picks which
// already-recorded runs a resume re-executes for verification.
const shardVerifyTag = 0x5e71f7

// DefaultVerifyResumed is how many already-recorded runs a resume
// re-executes and compares against the checkpoint by default.
const DefaultVerifyResumed = 2

// ShardRunOptions configures RunShard's execution: everything that may
// differ between two executions of the same shard without affecting its
// results.
type ShardRunOptions struct {
	// Exec is how the shard's campaign executes. Its Context cancels the
	// shard cooperatively: completed runs are already durable in the
	// checkpoint when RunShard returns the context's error. Its Tracer
	// wraps the campaign in a shard span, parented to TraceParent
	// (typically the daemon's job span), so the job → shard → run
	// correlation ID threads end to end.
	Exec
	// Progress, when non-nil, is invoked once before the first run,
	// with the resumed runs done (Executed is 0), and then after each
	// newly executed run, with a snapshot of the running stats.
	Progress func(stats ShardRunStats)
	// VerifyResumed is how many already-recorded runs to re-execute and
	// compare against the checkpoint when resuming: deterministic
	// re-execution is what makes a partial checkpoint trustworthy. 0
	// means DefaultVerifyResumed; -1 disables verification. The sample
	// is drawn from a stream derived from (seed, shard) so it does not
	// depend on how many times the shard was interrupted.
	VerifyResumed int
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
// manifest and records passing the shard's gate (Shard.Check, every
// index required once it is finalized) before any run starts and a
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
		// A checkpoint that does not belong to the shard, or is finalized
		// short of it, must not be extended or handed back.
		if err = sh.Check(m, completed, cp.Finalized()); err != nil {
			return nil, stats, err
		}
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

	// recorded[k] is the resumed record of the shard's fault k.
	recorded := make([]*trace.RunRecord, sh.End-sh.Start)
	for i := range completed {
		recorded[completed[i].Index-sh.Start] = &completed[i]
	}
	stats.Resumed = len(completed)
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
	verifyCount = max(0, min(verifyCount, len(completed)))
	verify := make([]bool, len(recorded))
	if verifyCount > 0 {
		var held []int // the resumed faults, in order
		for k, rec := range recorded {
			if rec != nil {
				held = append(held, k)
			}
		}
		g := rng.NewDerived(sh.Spec.Seed, shardVerifyTag, uint64(sh.Index), uint64(sh.Count))
		for _, p := range g.Perm(len(held))[:verifyCount] {
			verify[held[p]] = true
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
		if recorded[k] == nil || verify[k] {
			jobs = append(jobs, job{sh.Start + k, verify[k]})
			faults = append(faults, sh.Faults[k])
		}
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
	opts.Exec = o.Exec
	opts.Context, opts.TraceParent = ctx, sspan
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
			want := recorded[j.global-sh.Start]
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
