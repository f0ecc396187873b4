package campaign

import (
	"encoding/json"
	"fmt"
	"sort"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/trace"
)

// Merged is the folded output of a complete shard set: the campaign
// spec the shards agree on and every run record, in global index
// order. Report() turns it into the same aggregated Report an
// unsharded run produces.
type Merged struct {
	Spec   Spec
	Shards int
	// Records holds one record per fault of the universe, sorted by
	// global index (0..len-1, gap-free — MergeShards guarantees it).
	Records []trace.RunRecord
}

// MergeShards validates and folds a set of shard checkpoints into one
// campaign. It refuses to merge unless the shards:
//
//   - carry identical spec and universe fingerprints (same campaign),
//   - are all finalized (footer present; its checksum was already
//     verified when the checkpoint was read),
//   - form exactly the planner's partition — every shard index 0..N-1
//     present once, ranges tiling [0, universe) with no overlap or gap,
//   - record every index of their range exactly once, with each
//     record's fault identity matching the universe re-derived from
//     the embedded spec.
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
	// A spec that does not validate is refused before it is expanded: its
	// mesh may not build, or its universe be past what a process may plan.
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: shard 0 manifest: %v", err)
	}
	universe := spec.Universe()
	if h := UniverseHash(universe); h != ref.UniverseHash {
		return nil, fmt.Errorf("campaign: universe hash %s does not match the spec's universe (%s) — site enumeration changed?", ref.UniverseHash, h)
	}

	n := ref.Shards
	if len(shards) != n {
		return nil, fmt.Errorf("campaign: got %d shards, manifest says the campaign has %d", len(shards), n)
	}
	seenShard := make([]bool, n)
	records := make([]*trace.RunRecord, len(universe))
	for _, sd := range shards {
		m := &sd.Manifest
		if m.SpecHash != ref.SpecHash || m.UniverseHash != ref.UniverseHash || m.Shards != n {
			return nil, fmt.Errorf("campaign: shard %d/%d (spec %s) belongs to a different campaign than shard %d/%d (spec %s)",
				m.Shard, m.Shards, m.SpecHash, ref.Shard, ref.Shards, ref.SpecHash)
		}
		if m.Shard < 0 || m.Shard >= n {
			return nil, fmt.Errorf("campaign: shard index %d outside [0,%d)", m.Shard, n)
		}
		if seenShard[m.Shard] {
			return nil, fmt.Errorf("campaign: shard %d supplied twice", m.Shard)
		}
		seenShard[m.Shard] = true
		lo, hi := ShardRange(len(universe), m.Shard, n)
		if m.Start != lo || m.End != hi {
			return nil, fmt.Errorf("campaign: shard %d covers [%d,%d), planner says [%d,%d)",
				m.Shard, m.Start, m.End, lo, hi)
		}
		if sd.Footer == nil {
			return nil, fmt.Errorf("campaign: shard %d is not finalized (%d/%d runs recorded) — resume it before merging",
				m.Shard, len(sd.Records), hi-lo)
		}
		if len(sd.Records) != hi-lo {
			return nil, fmt.Errorf("campaign: shard %d has %d records, range [%d,%d) needs %d",
				m.Shard, len(sd.Records), lo, hi, hi-lo)
		}
		for i := range sd.Records {
			rec := &sd.Records[i]
			if rec.Index < lo || rec.Index >= hi {
				return nil, fmt.Errorf("campaign: shard %d record index %d outside its range [%d,%d)",
					m.Shard, rec.Index, lo, hi)
			}
			if records[rec.Index] != nil {
				return nil, fmt.Errorf("campaign: duplicate record for fault index %d", rec.Index)
			}
			f := &universe[rec.Index]
			if !recordDescribes(rec, f) {
				return nil, fmt.Errorf("campaign: record %d describes fault %s.bit%d, universe has %v",
					rec.Index, rec.Signal, rec.Bit, f)
			}
			records[rec.Index] = rec
		}
	}
	for i := range seenShard {
		if !seenShard[i] {
			return nil, fmt.Errorf("campaign: shard %d/%d missing from the merge", i, n)
		}
	}
	out := &Merged{Spec: spec, Shards: n, Records: make([]trace.RunRecord, len(universe))}
	for i, rec := range records {
		if rec == nil {
			// Unreachable given the counting above, but a nil deref here
			// would be a far worse failure mode than an error.
			return nil, fmt.Errorf("campaign: no record for fault index %d", i)
		}
		out.Records[i] = *rec
	}
	return out, nil
}

// Report rebuilds the aggregated campaign report from the merged
// records. The result renders bit-identically to the report of the
// equivalent unsharded run (same figures, same WriteJSON bytes).
func (m *Merged) Report() (*Report, error) {
	return ReportFromRecords(m.Spec, m.Records)
}

// ReportFromRecords builds the Report of a complete record set (one
// record per fault of spec's universe, indices 0..len-1 in any order):
// the records sorted by index, each checked against the fault the spec's
// universe has at its index (checkRecord). It is the fold an unsharded
// Run's report is, over the same records; what records do not carry —
// the golden artefact's footprint and the run paths' cycle accounting —
// stays zero.
func ReportFromRecords(spec Spec, recs []trace.RunRecord) (*Report, error) {
	sorted := append([]trace.RunRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	universe := spec.Universe()
	if len(sorted) != len(universe) {
		return nil, fmt.Errorf("campaign: %d records for a universe of %d faults", len(sorted), len(universe))
	}
	rep := &Report{Opts: spec.Options(), Results: sorted}
	for i := range sorted {
		rec := &sorted[i]
		if rec.Index != i {
			return nil, fmt.Errorf("campaign: record set is not a gap-free index sequence (position %d has index %d)", i, rec.Index)
		}
		if err := checkRecord(rec, &universe[i]); err != nil {
			return nil, fmt.Errorf("campaign: record %d: %v", i, err)
		}
		if rec.FastPath {
			rep.FastPathHits++
		}
	}
	return rep, nil
}

// recordDescribes reports whether rec carries f's identity: its site, bit,
// type and injection cycle.
func recordDescribes(rec *trace.RunRecord, f *fault.Fault) bool {
	return rec.Router == f.Site.Router && rec.Signal == f.Site.Kind.String() &&
		rec.Port == f.Site.Port && rec.VC == f.Site.VC && rec.Bit == f.Bit &&
		rec.FaultType == f.Type.String() && rec.Cycle == f.Cycle
}

// checkRecord refuses a record the report cannot fold: one that does not
// describe f, the fault at its index, or that carries an outcome other
// than the four, or a checker outside Table 1.
func checkRecord(rec *trace.RunRecord, f *fault.Fault) error {
	if !recordDescribes(rec, f) {
		return fmt.Errorf("describes fault %s.bit%d, the universe has %v", rec.Signal, rec.Bit, f)
	}
	for _, o := range []trace.Outcome{rec.Outcome, rec.CautiousOutcome, rec.ForeverOutcome} {
		if !o.Known() {
			return fmt.Errorf("unknown outcome %v", o)
		}
	}
	for _, ids := range [][]core.CheckerID{rec.CheckersFired, rec.FirstCycleCheckers} {
		for _, id := range ids {
			if id < 1 || id > core.NumCheckers {
				return fmt.Errorf("unknown checker %d", int(id))
			}
		}
	}
	return nil
}
