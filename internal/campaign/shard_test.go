package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nocalert/internal/core"
	"nocalert/internal/trace"
)

// shardTestSpec is the spec the sharding tests run: small enough for
// CI, loaded enough to produce every outcome class.
func shardTestSpec(nFaults int) Spec {
	return Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     nFaults,
	}
}

// TestShardRangePartition: for any shard count, the ranges tile
// [0, total) exactly — contiguous, disjoint, no gaps.
func TestShardRangePartition(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 48, 96, 11808, 32256} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 97} {
			prevHi := 0
			for i := 0; i < n; i++ {
				lo, hi := ShardRange(total, i, n)
				if lo != prevHi {
					t.Fatalf("total=%d n=%d: shard %d starts at %d, previous ended at %d", total, n, i, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("total=%d n=%d: shard %d has negative range [%d,%d)", total, n, i, lo, hi)
				}
				prevHi = hi
			}
			if prevHi != total {
				t.Fatalf("total=%d n=%d: shards end at %d", total, n, prevHi)
			}
		}
	}
}

// TestPlanShardTilesUniverse: planned shards re-assemble into exactly
// the unsharded universe, for several shard counts, and planning is
// deterministic.
func TestPlanShardTilesUniverse(t *testing.T) {
	spec := shardTestSpec(50)
	universe := spec.Universe()
	for _, n := range []int{1, 3, 4, 7, 50} {
		var rebuilt int
		for i := 0; i < n; i++ {
			sh, err := PlanShard(spec, i, n)
			if err != nil {
				t.Fatal(err)
			}
			if sh.UniverseHash != UniverseHash(universe) {
				t.Fatalf("n=%d shard %d: universe hash differs", n, i)
			}
			for k, f := range sh.Faults {
				if f != universe[sh.Start+k] {
					t.Fatalf("n=%d shard %d: fault %d is %v, universe has %v", n, i, k, &f, &universe[sh.Start+k])
				}
				rebuilt++
			}
			again, err := PlanShard(spec, i, n)
			if err != nil {
				t.Fatal(err)
			}
			if again.Start != sh.Start || again.End != sh.End || len(again.Faults) != len(sh.Faults) {
				t.Fatalf("n=%d shard %d: planning is not deterministic", n, i)
			}
		}
		if rebuilt != len(universe) {
			t.Fatalf("n=%d: shards carry %d faults, universe has %d", n, rebuilt, len(universe))
		}
	}
	if _, err := PlanShard(spec, 3, 3); err == nil {
		t.Fatal("PlanShard accepted an out-of-range index")
	}
	if _, err := PlanShard(spec, 0, 0); err == nil {
		t.Fatal("PlanShard accepted zero shards")
	}
}

// recCache memoizes record sets across the sharding tests (each
// campaign execution costs seconds).
var recCache = map[string][]trace.RunRecord{}

// unshardedRecords runs the spec's campaign unsharded and returns its
// canonical-ordered record set.
func unshardedRecords(t *testing.T, spec Spec) []trace.RunRecord {
	t.Helper()
	if recs, ok := recCache[spec.Hash()]; ok {
		return recs
	}
	opts := spec.Options()
	opts.Faults = spec.Universe()
	recs := mustRun(t, opts).Results
	recCache[spec.Hash()] = recs
	return recs
}

// runShardToFile plans and executes one shard, checkpointing to dir.
func runShardToFile(t *testing.T, spec Spec, i, n int, dir string) string {
	t.Helper()
	sh, err := PlanShard(spec, i, n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sh.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard.ndjson")
	cp, completed, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	_, stats, err := RunShard(sh, cp, completed, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Fatalf("shard %d/%d did not complete: %+v", i, n, stats)
	}
	return path
}

func canonicalSet(recs []trace.RunRecord) map[int]string {
	out := make(map[int]string, len(recs))
	for i := range recs {
		out[recs[i].Index] = string(recs[i].CanonicalBytes())
	}
	return out
}

// TestShardedMergeBitIdentical is the tentpole acceptance test:
// executing the campaign as shards and merging yields records — and an
// aggregated report, byte for byte — identical to the unsharded run.
func TestShardedMergeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(48)
	want := unshardedRecords(t, spec)

	const n = 3
	var shards []*trace.CheckpointData
	for i := 0; i < n; i++ {
		path := runShardToFile(t, spec, i, n, t.TempDir())
		cd, err := trace.ReadCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cd.Footer == nil {
			t.Fatalf("shard %d checkpoint has no footer", i)
		}
		shards = append(shards, cd)
	}
	merged, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Records) != len(want) {
		t.Fatalf("merged %d records, unsharded run has %d", len(merged.Records), len(want))
	}
	wantSet := canonicalSet(want)
	for i := range merged.Records {
		rec := &merged.Records[i]
		if got := string(rec.CanonicalBytes()); got != wantSet[rec.Index] {
			t.Fatalf("record %d differs between sharded and unsharded execution:\nsharded:   %s\nunsharded: %s",
				rec.Index, got, wantSet[rec.Index])
		}
	}
	if trace.SumRecords(merged.Records) != trace.SumRecords(want) {
		t.Fatal("merged checksum differs from unsharded checksum")
	}

	// Aggregated report: bit-identical JSON export both when rebuilt
	// from the unsharded records and when rebuilt from the merge.
	unshardedRep, err := ReportFromRecords(spec, want)
	if err != nil {
		t.Fatal(err)
	}
	mergedRep, err := merged.Report()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := unshardedRep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := mergedRep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged report JSON differs from unsharded:\n%s\nvs\n%s", b.String(), a.String())
	}
}

// TestReportFromRecordsMatchesLiveReport: a report rebuilt from the
// record stream exports the same JSON as the live in-memory report —
// the records really do carry everything the aggregation needs.
func TestReportFromRecordsMatchesLiveReport(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(48)
	opts := spec.Options()
	opts.Faults = spec.Universe()
	recs := make([]trace.RunRecord, len(opts.Faults))
	opts.OnResult = func(rec *trace.RunRecord, _ ExitPath) { recs[rec.Index] = *rec }
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ReportFromRecords(spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	var live, rec bytes.Buffer
	if err := rep.WriteJSON(&live); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteJSON(&rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), rec.Bytes()) {
		t.Fatalf("record-rebuilt report differs from live report:\n%s\nvs\n%s", rec.String(), live.String())
	}
	if rebuilt.FastPathHits != rep.FastPathHits {
		t.Fatalf("rebuilt fast-path hits %d, live %d", rebuilt.FastPathHits, rep.FastPathHits)
	}
}

// FuzzSpecIntake holds the job API's spec boundary: bytes decoded as a
// Spec the way the daemon decodes a submission (unknown fields refused),
// then normalized and validated the way it and the coordinator take one
// in. No input may panic, and a spec that validates must be a fixed point
// of Normalize that keeps its Hash — the job's durable identity. It never
// expands the spec (Universe, Options): a valid spec may still be millions
// of faults. The seeds are TestJobAPI's rejection bodies, a valid spec,
// and a zero-wide mesh left to the default VC count, which once panicked
// in Normalize.
func FuzzSpecIntake(f *testing.F) {
	cycles := make([]string, 1000)
	for c := range cycles {
		cycles[c] = strconv.Itoa(c)
	}
	for _, body := range []string{
		`{"mesh_w":4,"mesh_h":4,"vcs":4,"injection_rate":0.12,"seed":3,"inject_cycle":300,"post_inject_run":400,"drain_deadline":5000,"epoch":400,"hop_latency":1,"num_faults":96}`,
		`{"mesh_w":0,"mesh_h":4,"vcs":4}`,
		`{"mesh_w":0,"mesh_h":4}`,
		`{"mesh_w":-3,"mesh_h":4}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":4,"num_faults":-1}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":9}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":33}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":4,"typo_field":1}`,
		`mesh=4x4`,
		`{"mesh_w":65536,"mesh_h":65536}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":4,"post_inject_run":1000000000}`,
		`{"mesh_w":4,"mesh_h":4,"vcs":4,"inject_cycles":[` + strings.Join(cycles, ",") + `]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec Spec
		if dec.Decode(&spec) != nil {
			return
		}
		spec.Normalize()
		if spec.Validate() != nil {
			return
		}
		again := spec
		again.InjectCycles = slices.Clone(spec.InjectCycles)
		again.Normalize()
		if !reflect.DeepEqual(again, spec) || again.Hash() != spec.Hash() {
			t.Errorf("a valid spec moved under a second Normalize:\n once %+v (hash %s)\ntwice %+v (hash %s)",
				spec, spec.Hash(), again, again.Hash())
		}
	})
}

// TestReportFromRecordsRefusesForeignRecords: a record set that does not
// describe the spec's campaign is refused, not folded. The records are
// written from the spec's universe (every run a true negative); each
// case damages one of them: an unknown outcome, signal, fault type or
// checker, or an identity that is not the fault the universe has at the
// record's index.
func TestReportFromRecordsRefusesForeignRecords(t *testing.T) {
	spec := shardTestSpec(24)
	universe := spec.Universe()
	records := func() []trace.RunRecord {
		recs := make([]trace.RunRecord, len(universe))
		for i := range universe {
			f := &universe[i]
			recs[i] = trace.RunRecord{
				Index: i, Router: f.Site.Router, Signal: f.Site.Kind.String(), Port: f.Site.Port,
				VC: f.Site.VC, Bit: f.Bit, FaultType: f.Type.String(), Cycle: f.Cycle, Drained: true,
				Outcome: trace.TrueNegative, Latency: -1, CautiousOutcome: trace.TrueNegative, CautiousLatency: -1,
				ForeverOutcome: trace.TrueNegative, ForeverLatency: -1,
			}
		}
		return recs
	}
	if _, err := ReportFromRecords(spec, records()); err != nil {
		t.Fatalf("the undamaged records: %v", err)
	}
	for name, damage := range map[string]func(r []trace.RunRecord){
		"zero outcome":        func(r []trace.RunRecord) { r[3].Outcome = 0 },
		"unknown outcome":     func(r []trace.RunRecord) { r[3].ForeverOutcome = trace.FalseNegative + 1 },
		"unknown signal":      func(r []trace.RunRecord) { r[5].Signal = "no.such.signal" },
		"unknown fault type":  func(r []trace.RunRecord) { r[5].FaultType = "cosmic" },
		"unknown checker":     func(r []trace.RunRecord) { r[7].CheckersFired = []core.CheckerID{core.NumCheckers + 1} },
		"checker zero":        func(r []trace.RunRecord) { r[7].FirstCycleCheckers = []core.CheckerID{0} },
		"another fault's run": func(r []trace.RunRecord) { r[0], r[0].Index = r[1], 0 },
		"wrong bit":           func(r []trace.RunRecord) { r[9].Bit++ },
		"wrong cycle":         func(r []trace.RunRecord) { r[9].Cycle++ },
		"swapped indices":     func(r []trace.RunRecord) { r[10].Index, r[11].Index = 11, 10 },
		"missing record":      func(r []trace.RunRecord) { r[len(r)-1].Index = len(r) },
	} {
		recs := records()
		damage(recs)
		if _, err := ReportFromRecords(spec, recs); err == nil {
			t.Errorf("%s: the record set was folded into a report", name)
		}
	}
	if _, err := ReportFromRecords(spec, records()[1:]); err == nil {
		t.Error("a record set one short of the universe was folded into a report")
	}
}

// TestInterruptedShardResume is the kill/resume acceptance test: a
// shard cancelled mid-campaign and resumed from its checkpoint must
// finish with exactly the records (and integrity checksum) of an
// uninterrupted execution.
func TestInterruptedShardResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(48)
	const n, idx = 2, 0
	want := unshardedRecords(t, spec) // global truth to compare against

	sh, err := PlanShard(spec, idx, n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sh.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "interrupted.ndjson")
	cp, completed, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 0 {
		t.Fatalf("fresh checkpoint claims %d completed runs", len(completed))
	}

	// Kill the shard after a third of its runs: cancel cooperatively
	// and let RunShard surface the context error.
	ctx, cancel := context.WithCancel(context.Background())
	killAfter := (sh.End - sh.Start) / 3
	_, stats, err := RunShard(sh, cp, completed, ShardRunOptions{
		Workers: 1,
		Context: ctx,
		Progress: func(done, total int, _ ShardRunStats) {
			if done >= killAfter {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatalf("interrupted shard returned no error (stats %+v)", stats)
	}
	if stats.Complete {
		t.Fatal("interrupted shard claims completion")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	partial, err := trace.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Records) == 0 || len(partial.Records) >= sh.End-sh.Start {
		t.Fatalf("interruption recorded %d of %d runs; test premise broken",
			len(partial.Records), sh.End-sh.Start)
	}
	if partial.Footer != nil {
		t.Fatal("interrupted checkpoint has a footer")
	}

	// Resume: skip-and-verify the recorded runs, execute the rest.
	cp2, completed2, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if len(completed2) != len(partial.Records) {
		t.Fatalf("resume recovered %d records, file has %d", len(completed2), len(partial.Records))
	}
	recs2, stats2, err := RunShard(sh, cp2, completed2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.Complete {
		t.Fatalf("resumed shard did not complete: %+v", stats2)
	}
	if stats2.Resumed != len(completed2) || stats2.Resumed+stats2.Executed != sh.End-sh.Start {
		t.Fatalf("resume accounting off: %+v", stats2)
	}
	if stats2.Verified == 0 {
		t.Fatal("resume verified no recorded runs")
	}

	// The resumed checkpoint must carry exactly the uninterrupted
	// run's records (canonical bytes) and checksum.
	final, err := trace.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Records) != sh.End-sh.Start || final.Footer == nil {
		t.Fatalf("resumed checkpoint: %d records, footer %v", len(final.Records), final.Footer)
	}
	wantSet := canonicalSet(want)
	for i := range final.Records {
		rec := &final.Records[i]
		if rec.Index < sh.Start || rec.Index >= sh.End {
			t.Fatalf("record %d outside shard range", rec.Index)
		}
		if got := string(rec.CanonicalBytes()); got != wantSet[rec.Index] {
			t.Fatalf("resumed record %d differs from uninterrupted execution:\nresumed: %s\nwant:    %s",
				rec.Index, got, wantSet[rec.Index])
		}
	}
	wantShard := want[sh.Start:sh.End]
	if final.Footer.Sum != trace.SumRecords(wantShard) {
		t.Fatalf("resumed checksum %s != uninterrupted %s", final.Footer.Sum, trace.SumRecords(wantShard))
	}
	// What RunShard hands back is the shard's records, the resumed ones
	// included: the checkpoint's.
	if got := trace.SumRecords(sortedByIndex(recs2)); got != final.Footer.Sum {
		t.Fatalf("the resumed shard handed back records summing to %s, its checkpoint %s", got, final.Footer.Sum)
	}

	// Resuming a finalized checkpoint is a no-op.
	cp3, completed3, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	recs3, stats3, err := RunShard(sh, cp3, completed3, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats3.Complete || stats3.Executed != 0 {
		t.Fatalf("finalized shard re-ran work: %+v", stats3)
	}
	if got := trace.SumRecords(sortedByIndex(recs3)); got != final.Footer.Sum {
		t.Fatalf("the finalized shard handed back records summing to %s, its checkpoint %s", got, final.Footer.Sum)
	}
}

// sortedByIndex returns recs in index order.
func sortedByIndex(recs []trace.RunRecord) []trace.RunRecord {
	out := slices.Clone(recs)
	slices.SortFunc(out, func(a, b trace.RunRecord) int { return a.Index - b.Index })
	return out
}

// TestRunShardWithoutCheckpoint runs the whole campaign as shard 0/1 with
// no checkpoint, the CLI's plain run: the records RunShard hands back must
// fold into the report Run gives, byte for byte.
func TestRunShardWithoutCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(48)
	sh, err := PlanShard(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, stats, err := RunShard(sh, nil, nil, ShardRunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete || stats.Executed != len(recs) || stats.Resumed != 0 || stats.Verified != 0 {
		t.Fatalf("a run without a checkpoint: %+v, %d records", stats, len(recs))
	}
	rep, err := ReportFromRecords(spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	want := &Report{Opts: spec.Options(), Results: unshardedRecords(t, spec)}
	var got, wantJSON bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
		t.Error("the records of a run without a checkpoint fold into a report other than Run's")
	}
}

// TestResumeDetectsTamperedCheckpoint: resume validates recorded runs
// two ways — fault identity against the plan, and deterministic
// re-execution of a sample. Both must reject a checkpoint whose
// records were altered.
func TestResumeDetectsTamperedCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(8)
	sh, err := PlanShard(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sh.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ndjson")
	cp, _, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, _, runErr := RunShard(sh, cp, nil, ShardRunOptions{
		Workers: 1,
		Context: ctx,
		Progress: func(done, total int, _ ShardRunStats) {
			if done >= 3 {
				cancel()
			}
		},
	})
	cancel()
	if runErr == nil {
		t.Fatal("expected interruption")
	}
	cp.Close()

	tamper := func(t *testing.T, mutate func(rec map[string]any)) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(lines) < 2 {
			t.Fatal("checkpoint too short to tamper")
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
			t.Fatal(err)
		}
		mutate(rec)
		mutated, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[1] = string(mutated)
		out := filepath.Join(t.TempDir(), "tampered.ndjson")
		if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// (a) Fault-identity tampering is caught by plan validation, and the
	// error names the record and the fault the plan has there.
	idx := -1
	badID := tamper(t, func(rec map[string]any) {
		idx = int(rec["index"].(float64))
		rec["router"] = rec["router"].(float64) + 1
	})
	cpa, completed, err := trace.ResumeCheckpoint(badID, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cpa.Close()
	_, _, err = RunShard(sh, cpa, completed, ShardRunOptions{})
	if err == nil {
		t.Fatal("identity-tampered checkpoint resumed without error")
	}
	if f := &sh.Faults[idx-sh.Start]; !strings.Contains(err.Error(), fmt.Sprintf("record %d ", idx)) || !strings.Contains(err.Error(), f.String()) {
		t.Fatalf("identity-tampered record %d (plan has %v): %v", idx, f, err)
	}

	// (b) Result tampering is caught by deterministic re-execution.
	badRes := tamper(t, func(rec map[string]any) {
		rec["fired"] = rec["fired"] != true
		rec["nocalert_outcome"] = "FN"
	})
	cpb, completedB, err := trace.ResumeCheckpoint(badRes, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cpb.Close()
	// Verify every recorded run so the tampered one is certainly
	// replayed.
	_, _, err = RunShard(sh, cpb, completedB, ShardRunOptions{VerifyResumed: 1 << 20})
	if err == nil {
		t.Fatal("result-tampered checkpoint resumed without error")
	}
	if !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("unexpected error for tampered result: %v", err)
	}
}

// TestMergeShardsRejectsBadSets: the merge reducer must refuse
// incomplete, duplicated or cross-campaign shard sets.
// TestValidateRefusesBadRates: an injection rate is a number of flits per
// node per cycle in [0, 1]; NaN, the infinities and anything outside the
// range are refused, the ends of the range are not. So is a VC count the
// router refuses (router.Config.Validate), before anything runs.
func TestValidateRefusesBadRates(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
		{-0.5, false}, {1.5, false}, {0, true}, {0.05, true}, {1, true},
	} {
		spec := shardTestSpec(4)
		spec.InjectionRate = tc.rate
		if err := spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("rate %g: Validate() = %v", tc.rate, err)
		}
	}
	for _, tc := range []struct {
		vcs int
		ok  bool
	}{{1, true}, {2, true}, {8, true}, {9, false}, {33, false}} {
		spec := shardTestSpec(4)
		spec.VCs = tc.vcs
		if err := spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d VCs: Validate() = %v", tc.vcs, err)
		}
	}
	// The spec budget: what no process could plan is refused, what the
	// repository runs is not.
	instants := func(n int) []int64 {
		c := make([]int64, n)
		for i := range c {
			c[i] = int64(1000 * (i + 1))
		}
		return c
	}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"65536x65536", func(s *Spec) { s.MeshW, s.MeshH = 65536, 65536 }, false},
		{"1x1000000", func(s *Spec) { s.MeshW, s.MeshH = 1, 1000000 }, false},
		{"max mesh", func(s *Spec) { s.MeshW, s.MeshH = math.MaxInt, math.MaxInt }, false},
		{"billion-cycle window", func(s *Spec) { s.PostInjectRun = 1e9 }, false},
		{"max window", func(s *Spec) { s.PostInjectRun = math.MaxInt64 }, false},
		{"1000 instants", func(s *Spec) { s.InjectCycles = instants(1000) }, false},
		{"80x80 population at 8 VCs", func(s *Spec) {
			s.MeshW, s.MeshH, s.VCs, s.InjectionRate, s.PostInjectRun, s.NumFaults = 80, 80, 8, 0, 1, 0
		}, false},
		{"80x80 sample at 8 VCs", func(s *Spec) {
			s.MeshW, s.MeshH, s.VCs, s.InjectionRate, s.PostInjectRun, s.NumFaults = 80, 80, 8, 0, 1, 1000
		}, true},
		{"32x32 at the paper's rate", func(s *Spec) { s.MeshW, s.MeshH, s.InjectionRate, s.PostInjectRun = 32, 32, 0.05, 500 }, true},
		{"16x16 population", func(s *Spec) { s.MeshW, s.MeshH, s.NumFaults = 16, 16, 0 }, true},
		{"forty 8x8 instants", func(s *Spec) {
			s.MeshW, s.MeshH, s.InjectionRate, s.PostInjectRun, s.InjectCycles = 8, 8, 0.05, 500, instants(40)
		}, true},
		{"more faults than the population", func(s *Spec) { s.NumFaults = math.MaxInt }, true},
	} {
		spec := shardTestSpec(4)
		tc.edit(&spec)
		err := spec.Validate()
		if (err == nil) != tc.ok || (err != nil && !strings.Contains(err.Error(), "over the spec budget")) {
			t.Errorf("%s: Validate() = %v", tc.name, err)
		}
	}
}

func TestMergeShardsRejectsBadSets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	spec := shardTestSpec(48)
	// Reuse the canonical unsharded records to synthesize finalized
	// shard checkpoints without re-running campaigns.
	want := unshardedRecords(t, spec)
	mkShard := func(i, n int) *trace.CheckpointData {
		sh, err := PlanShard(spec, i, n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sh.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		recs := append([]trace.RunRecord(nil), want[sh.Start:sh.End]...)
		return &trace.CheckpointData{
			Manifest: *m,
			Records:  recs,
			Footer:   &trace.Footer{Kind: "footer", Records: len(recs), Sum: trace.SumRecords(recs)},
		}
	}

	good := []*trace.CheckpointData{mkShard(0, 2), mkShard(1, 2)}
	if _, err := MergeShards(good); err != nil {
		t.Fatalf("valid shard set rejected: %v", err)
	}

	if _, err := MergeShards(good[:1]); err == nil {
		t.Fatal("merge accepted an incomplete shard set")
	}
	if _, err := MergeShards([]*trace.CheckpointData{mkShard(0, 2), mkShard(0, 2)}); err == nil {
		t.Fatal("merge accepted a duplicated shard")
	}

	foreign := mkShard(1, 2)
	foreign.Manifest.SpecHash = "deadbeefdeadbeef"
	if _, err := MergeShards([]*trace.CheckpointData{mkShard(0, 2), foreign}); err == nil {
		t.Fatal("merge accepted shards from different campaigns")
	}

	// A manifest whose embedded spec does not validate, with a hash that
	// matches it, is refused before its universe is expanded: a mesh zero
	// nodes wide used to panic building the mesh, and a spec past the spec
	// budget was enumerated (and, its universe unchanged, merged).
	for _, tc := range []struct {
		name, err string
		edit      func(*Spec)
	}{
		{"zero-wide mesh", "mesh", func(s *Spec) { s.MeshW = 0 }},
		{"billion-cycle window", "over the spec budget", func(s *Spec) { s.PostInjectRun = 1e9 }},
	} {
		bad := spec
		tc.edit(&bad)
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		set := []*trace.CheckpointData{mkShard(0, 2), mkShard(1, 2)}
		for _, sd := range set {
			sd.Manifest.Spec, sd.Manifest.SpecHash = raw, bad.Hash()
		}
		if _, err := MergeShards(set); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: merge of shards whose spec does not validate: %v, want an error naming %q", tc.name, err, tc.err)
		}
	}

	unfinished := mkShard(1, 2)
	unfinished.Footer = nil
	if _, err := MergeShards([]*trace.CheckpointData{mkShard(0, 2), unfinished}); err == nil {
		t.Fatal("merge accepted an unfinalized shard")
	}

	short := mkShard(1, 2)
	short.Records = short.Records[:len(short.Records)-1]
	short.Footer = &trace.Footer{Kind: "footer", Records: len(short.Records), Sum: trace.SumRecords(short.Records)}
	if _, err := MergeShards([]*trace.CheckpointData{mkShard(0, 2), short}); err == nil {
		t.Fatal("merge accepted a shard with missing records")
	}

	// A record whose fault is not the universe's at its index: the error
	// names the index and the universe's fault.
	other := mkShard(1, 2)
	rec := &other.Records[0]
	rec.Bit ^= 1
	other.Footer = &trace.Footer{Kind: "footer", Records: len(other.Records), Sum: trace.SumRecords(other.Records)}
	_, err := MergeShards([]*trace.CheckpointData{mkShard(0, 2), other})
	if err == nil {
		t.Fatal("merge accepted a record describing another fault")
	}
	if f := spec.Universe()[rec.Index]; !strings.Contains(err.Error(), fmt.Sprintf("record %d ", rec.Index)) || !strings.Contains(err.Error(), f.String()) {
		t.Fatalf("record %d describing another fault (universe has %v): %v", rec.Index, &f, err)
	}
}
