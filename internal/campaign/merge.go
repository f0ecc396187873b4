package campaign

import (
	"encoding/json"
	"fmt"

	"nocalert/internal/trace"
)

// Merged is the output of a complete, gated shard set: the campaign
// spec the shards agree on and every run record, in global index
// order. Report() folds it into the same aggregated Report an
// unsharded run produces.
type Merged struct {
	Spec   Spec
	Shards int
	// Records holds one record per fault of the universe, sorted by
	// global index (0..len-1, gap-free — whoever gated the shards
	// guarantees it).
	Records []trace.RunRecord
}

// MergeShards validates and folds a set of shard checkpoints into one
// campaign. The first shard's manifest names the campaign: its embedded
// spec, which must hash to its spec hash (checked before the spec is
// expanded) and validate, and the shard count, which the set must match.
// Every shard index 0..N-1 must be present once, finalized (footer
// present; its checksum was already verified when the checkpoint was
// read), and pass its planned shard's gate (Shard.Check) as finished;
// the plan cuts every shard from one expansion of the spec's universe.
//
// Passing all checks proves the merged record set covers the identical
// fault universe an unsharded run would execute, one record per fault.
func MergeShards(shards []*trace.CheckpointData) (*Merged, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: no shards to merge")
	}
	ref := &shards[0].Manifest
	var spec Spec
	if err := json.Unmarshal(ref.Spec, &spec); err != nil {
		return nil, fmt.Errorf("campaign: shard manifest spec: %v", err)
	}
	if h := spec.Hash(); h != ref.SpecHash {
		return nil, fmt.Errorf("campaign: shard 0 spec hash %s does not match its embedded spec (%s)", ref.SpecHash, h)
	}
	n := ref.Shards
	if len(shards) != n {
		return nil, fmt.Errorf("campaign: got %d shards, manifest says the campaign has %d", len(shards), n)
	}
	// A spec that does not validate is refused before it is expanded: its
	// mesh may not build, or its universe be past what a process may plan.
	plan, err := PlanShards(spec, n)
	if err != nil {
		return nil, fmt.Errorf("campaign: shard 0 manifest: %v", err)
	}
	out := &Merged{Spec: spec, Shards: n, Records: make([]trace.RunRecord, plan[n-1].End)}
	seen := make([]bool, n)
	for _, sd := range shards {
		m := &sd.Manifest
		if m.Shard < 0 || m.Shard >= n {
			return nil, fmt.Errorf("campaign: shard index %d outside [0,%d)", m.Shard, n)
		}
		if seen[m.Shard] {
			return nil, fmt.Errorf("campaign: shard %d supplied twice", m.Shard)
		}
		seen[m.Shard] = true
		sh := plan[m.Shard]
		if sd.Footer == nil {
			return nil, fmt.Errorf("campaign: shard %d is not finalized (%d/%d runs recorded) — resume it before merging",
				m.Shard, len(sd.Records), sh.End-sh.Start)
		}
		if err := sh.Check(m, sd.Records, true); err != nil {
			return nil, err
		}
		for i := range sd.Records {
			out.Records[sd.Records[i].Index] = sd.Records[i]
		}
	}
	return out, nil
}

// Report folds the merged records into the aggregated campaign report.
// It neither plans nor gates: whoever built m gated every shard against
// one plan (MergeShards, or the coordinator at each fetch). The result
// renders bit-identically to the report of the equivalent unsharded run
// (same figures, same WriteJSON bytes).
func (m *Merged) Report() *Report {
	return foldRecords(m.Spec, m.Records)
}

// ReportFromRecords builds the Report of a complete record set (one
// record per fault of spec's universe, indices 0..len-1 in any order):
// the records pass the gate of the spec's shard 0/1 (Shard.Check) and
// are folded as Merged.Report folds. It is the fold an unsharded Run's
// report is, over the same records; what records do not carry — the
// golden artefact's footprint and the run paths' cycle accounting — stays
// zero.
func ReportFromRecords(spec Spec, recs []trace.RunRecord) (*Report, error) {
	sh, err := PlanShard(spec, 0, 1)
	if err != nil {
		return nil, err
	}
	m, err := sh.Manifest()
	if err != nil {
		return nil, err
	}
	if err := sh.Check(m, recs, true); err != nil {
		return nil, err
	}
	return foldRecords(spec, recs), nil
}

// foldRecords places a gated, complete record set in index order under
// the spec's options and counts its fast-path runs.
func foldRecords(spec Spec, recs []trace.RunRecord) *Report {
	rep := &Report{Opts: spec.Options(), Results: make([]trace.RunRecord, len(recs))}
	for i := range recs {
		rep.Results[recs[i].Index] = recs[i]
		if recs[i].FastPath {
			rep.FastPathHits++
		}
	}
	return rep
}
