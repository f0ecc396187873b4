package campaign

// This file splits one campaign into N self-describing, independently
// executable shards. The partition is purely arithmetic over the
// deterministic fault universe — shard i of N covers global fault
// indices [i*total/N, (i+1)*total/N) — so for any N the shards tile
// the identical universe with no overlap and no gaps, and any shard
// can be planned (or re-planned after a crash) without coordination.
// Because every run forks from the same warmed base state and the
// universe is sampled once from the spec's seed (never per shard),
// shard boundaries and execution order cannot change any run's result:
// merging all shards reproduces the unsharded report bit for bit.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
	"nocalert/internal/trace"
)

// Spec is the complete, serializable description of a campaign: the
// mesh, workload, fault universe and run parameters. Two processes
// holding equal Specs derive the identical fault universe and produce
// identical run records, which is what makes shards self-describing —
// a checkpoint's embedded Spec is all a merger needs.
type Spec struct {
	MeshW         int     `json:"mesh_w"`
	MeshH         int     `json:"mesh_h"`
	VCs           int     `json:"vcs"`
	InjectionRate float64 `json:"injection_rate"`
	Seed          uint64  `json:"seed"`
	InjectCycle   int64   `json:"inject_cycle"`
	// InjectCycles, when non-empty, distributes the sampled universe's
	// injection cycles round-robin over this list (fault i injects at
	// InjectCycles[i%len]). Empty means every fault injects at
	// InjectCycle, which keeps the spec hash — and therefore every
	// existing checkpoint's identity — unchanged.
	InjectCycles  []int64 `json:"inject_cycles,omitempty"`
	PostInjectRun int64   `json:"post_inject_run"`
	DrainDeadline int64   `json:"drain_deadline"`
	Epoch         int64   `json:"epoch"`
	HopLatency    int64   `json:"hop_latency"`
	// NumFaults is the sample size drawn from the universe (0 = every
	// single-bit location).
	NumFaults int `json:"num_faults"`
}

// Validate rejects specs that cannot describe a campaign, or describe one
// past specBudget.
func (s *Spec) Validate() error {
	if s.MeshW < 1 || s.MeshH < 1 {
		return fmt.Errorf("campaign: invalid mesh %dx%d", s.MeshW, s.MeshH)
	}
	if s.VCs < 1 {
		return fmt.Errorf("campaign: invalid VC count %d", s.VCs)
	}
	if !(s.InjectionRate >= 0 && s.InjectionRate <= 1) { // NaN fails both
		return fmt.Errorf("campaign: invalid injection rate %g", s.InjectionRate)
	}
	if s.NumFaults < 0 {
		return fmt.Errorf("campaign: invalid fault count %d", s.NumFaults)
	}
	if s.InjectCycle < 0 {
		return fmt.Errorf("campaign: invalid injection cycle %d", s.InjectCycle)
	}
	for _, c := range s.InjectCycles {
		if c < 0 {
			return fmt.Errorf("campaign: invalid injection cycle %d", c)
		}
	}
	// What the router refuses (a VC count past router.MaxVCs) is refused here.
	rc := s.RouterConfig()
	if err := rc.Validate(); err != nil {
		return err
	}
	return s.withinBudget()
}

// specBudget caps what a spec may make a process allocate before its
// first run can fail, in elements of the two things a spec sizes:
//
//   - The fault universe. SampleFaults holds one fault.Fault (80 bytes)
//     per fault drawn — NumFaults, or every fault bit of the mesh when
//     NumFaults is 0 or exceeds them — and a campaign one fault group and
//     one trace.RunRecord (192 bytes, and its checker lists) per
//     fault besides.
//   - The golden transcripts, one per distinct injection cycle.
//     newRecording sizes each for rows = PostInjectRun + 4·(W+H) cycles
//     (the window and a drain allowance): a fold array of rows × nodes
//     words, and link and credit arrays of rows × the offered hops a
//     cycle each — rate × nodes × the mean hop distance, about (W+H)/3 —
//     so rows × nodes × (1 + rate·(W+H)) elements bound all three.
//
// 1<<22 elements keeps either under two gigabytes. It admits a 32×32 mesh
// at the paper's rate and forty injection instants of the paper-scale
// 8×8 campaign (2.6 M transcript elements), and refuses a 65536×65536
// mesh or a billion-cycle window, which no process could plan.
const specBudget = 1 << 22

// withinBudget refuses a spec whose transcripts or fault universe exceed
// specBudget; the spec's router configuration is valid. The transcripts
// are counted first, in floating point so no product overflows: their
// bound caps the mesh's node count, which the universe's per-router sum
// (UniverseSize) then walks.
func (s *Spec) withinBudget() error {
	post := s.PostInjectRun
	if post <= 0 {
		post = DefaultPostInjectRun
	}
	cycles := 1
	if len(s.InjectCycles) > 0 {
		distinct := make(map[int64]bool, len(s.InjectCycles))
		for _, c := range s.InjectCycles {
			distinct[c] = true
		}
		cycles = len(distinct)
	}
	w, h := float64(s.MeshW), float64(s.MeshH)
	rows := float64(post) + 4*(w+h)
	if cells := float64(cycles) * rows * w * h * (1 + s.InjectionRate*(w+h)); cells > specBudget {
		return fmt.Errorf("campaign: spec needs %.3g transcript elements (%d injection cycles × %.0f rows on a %dx%d mesh), over the spec budget of %d",
			cells, cycles, rows, s.MeshW, s.MeshH, specBudget)
	}
	if faults := s.UniverseSize(); faults > specBudget {
		return fmt.Errorf("campaign: spec draws %d faults, over the spec budget of %d", faults, specBudget)
	}
	return nil
}

// UniverseSize is the number of faults the spec's universe holds:
// NumFaults, or every fault bit of the mesh when NumFaults is 0 or
// exceeds them. It walks the routers without drawing a fault, so the
// spec's router configuration must be valid.
func (s *Spec) UniverseSize() int {
	rc := s.RouterConfig()
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	population := 0
	for r := 0; r < rc.Mesh.Nodes(); r++ {
		population += params.RouterBits(r)
	}
	if s.NumFaults == 0 || s.NumFaults > population {
		return population
	}
	return s.NumFaults
}

// Normalize fills in the fields the spec leaves unset with the values the
// campaign runs with: the router's VC count, the run parameters of
// Options.withDefaults and ForEVeR's defaults. Whoever hashes or persists
// a spec — the daemon, the coordinator, the CLI — normalizes it first, so
// a campaign's durable identity is the effective spec, never an ambiguous
// zero, and a fully specified spec keeps its hash. It is safe on any
// decoded spec: a mesh no router can have keeps VCs zero, for Validate to
// refuse.
func (s *Spec) Normalize() {
	if s.VCs == 0 && s.MeshW >= 1 && s.MeshH >= 1 {
		s.VCs = router.Default(topology.NewMesh(s.MeshW, s.MeshH)).VCs
	}
	if s.PostInjectRun <= 0 {
		s.PostInjectRun = DefaultPostInjectRun
	}
	if s.DrainDeadline <= 0 {
		s.DrainDeadline = DefaultDrainDeadline
	}
	fv := forever.DefaultOptions()
	if s.Epoch <= 0 {
		s.Epoch = fv.Epoch
	}
	if s.HopLatency <= 0 {
		s.HopLatency = fv.HopLatency
	}
}

// RouterConfig returns the router micro-architecture the spec fixes.
func (s *Spec) RouterConfig() router.Config {
	rc := router.Default(topology.NewMesh(s.MeshW, s.MeshH))
	rc.VCs = s.VCs
	return rc
}

// Options expands the spec into campaign options (without faults).
func (s *Spec) Options() Options {
	rc := s.RouterConfig()
	return Options{
		Sim:           sim.Config{Router: rc, InjectionRate: s.InjectionRate, Seed: s.Seed},
		InjectCycle:   s.InjectCycle,
		PostInjectRun: s.PostInjectRun,
		DrainDeadline: s.DrainDeadline,
		Forever:       forever.Options{Epoch: s.Epoch, HopLatency: s.HopLatency},
	}
}

// Universe returns the spec's full fault list. The draw depends only
// on the spec — crucially never on shard count or execution order —
// so every shard slices the same list. A non-empty InjectCycles list
// restamps the draw round-robin, after sampling, so the set of fault
// locations is independent of how injection cycles are spread.
func (s *Spec) Universe() []fault.Fault {
	rc := s.RouterConfig()
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	u := SampleFaults(params, s.NumFaults, s.Seed, s.InjectCycle)
	if len(s.InjectCycles) > 0 {
		for i := range u {
			u[i].Cycle = s.InjectCycles[i%len(s.InjectCycles)]
		}
	}
	return u
}

// Hash fingerprints the spec (FNV-1a over its canonical JSON).
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// universeHash fingerprints the exact fault list the spec expands to,
// so a merger can prove two shards partitioned the same universe even
// if the enumeration code changed between their runs.
func universeHash(faults []fault.Fault) string {
	h := fnv.New64a()
	for i := range faults {
		f := &faults[i]
		fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d;",
			f.Site.Router, int(f.Site.Kind), f.Site.Port, f.Site.VC, f.Bit, f.Cycle, int(f.Type))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShardRange returns the global index range [lo, hi) shard i of n
// covers over a universe of the given total size. For every n the
// ranges tile [0, total) exactly: contiguous, disjoint, no gaps.
func ShardRange(total, i, n int) (lo, hi int) {
	return i * total / n, (i + 1) * total / n
}

// Shard is one planned slice of a campaign.
type Shard struct {
	Spec  Spec
	Index int
	Count int
	// Start and End are the global fault-index range [Start, End).
	Start, End int
	// Faults are the shard's own faults; Faults[k] has global index
	// Start+k.
	Faults []fault.Fault
	// UniverseHash fingerprints the full universe the shard was cut
	// from.
	UniverseHash string
}

// PlanShard deterministically plans shard i of n for the spec.
func PlanShard(spec Spec, i, n int) (*Shard, error) {
	cut, err := planner(spec, n)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("campaign: shard index %d outside [0,%d)", i, n)
	}
	return cut(i), nil
}

// PlanShards plans every shard of an n-way split of the spec, all cut
// from one expansion of its universe. It holds one Shard per index, so
// the caller bounds n.
func PlanShards(spec Spec, n int) ([]*Shard, error) {
	cut, err := planner(spec, n)
	if err != nil {
		return nil, err
	}
	plan := make([]*Shard, n)
	for i := range plan {
		plan[i] = cut(i)
	}
	return plan, nil
}

// planner validates the spec and the shard count and expands the
// universe once; cut plans shard i of n from it.
func planner(spec Spec, n int) (cut func(i int) *Shard, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("campaign: shard count %d < 1", n)
	}
	universe := spec.Universe()
	if len(universe) == 0 {
		return nil, fmt.Errorf("campaign: spec yields an empty fault universe")
	}
	hash := universeHash(universe)
	return func(i int) *Shard {
		lo, hi := ShardRange(len(universe), i, n)
		return &Shard{Spec: spec, Index: i, Count: n, Start: lo, End: hi, Faults: universe[lo:hi], UniverseHash: hash}
	}, nil
}

// Manifest returns the checkpoint manifest describing the shard.
func (sh *Shard) Manifest() (*trace.Manifest, error) {
	specJSON, err := json.Marshal(&sh.Spec)
	if err != nil {
		return nil, err
	}
	return &trace.Manifest{
		Kind:         "manifest",
		Version:      trace.CheckpointVersion,
		Spec:         specJSON,
		SpecHash:     sh.Spec.Hash(),
		UniverseHash: sh.UniverseHash,
		Shard:        sh.Index,
		Shards:       sh.Count,
		Start:        sh.Start,
		End:          sh.End,
	}, nil
}

// Check is the one gate between a checkpoint and its campaign: it decides
// whether manifest m and records recs belong to the shard. m must be
// Compatible with the shard's own manifest; every record must fall in
// [Start, End), appear once and pass checkRecord against the fault the
// plan has at its index; and a finished shard must record every index.
// RunShard's resume, MergeShards, the coordinator's fetch and
// ReportFromRecords all take records through it.
func (sh *Shard) Check(m *trace.Manifest, recs []trace.RunRecord, finished bool) error {
	own, err := sh.Manifest()
	if err != nil {
		return err
	}
	if !own.Compatible(m) {
		return fmt.Errorf("campaign: checkpoint is shard %d/%d [%d,%d) of spec %s (universe %s), not the plan's %d/%d [%d,%d) of spec %s (universe %s)",
			m.Shard, m.Shards, m.Start, m.End, m.SpecHash, m.UniverseHash,
			own.Shard, own.Shards, own.Start, own.End, own.SpecHash, own.UniverseHash)
	}
	seen := make([]bool, sh.End-sh.Start)
	for i := range recs {
		rec := &recs[i]
		if rec.Index < sh.Start || rec.Index >= sh.End {
			return fmt.Errorf("campaign: record index %d outside shard %d/%d's range [%d,%d)",
				rec.Index, sh.Index, sh.Count, sh.Start, sh.End)
		}
		k := rec.Index - sh.Start
		if seen[k] {
			return fmt.Errorf("campaign: duplicate record for fault index %d", rec.Index)
		}
		seen[k] = true
		if err := checkRecord(rec, &sh.Faults[k]); err != nil {
			return fmt.Errorf("campaign: record %d %v", rec.Index, err)
		}
	}
	if finished && len(recs) != len(seen) {
		return fmt.Errorf("campaign: shard %d/%d is finished with %d of its %d records",
			sh.Index, sh.Count, len(recs), len(seen))
	}
	return nil
}

// checkRecord refuses a record the report cannot fold: one that does not
// carry f's identity (its site, bit, type and injection cycle), or that
// carries an outcome other than the four, or a checker outside Table 1.
// Its errors follow "record N".
func checkRecord(rec *trace.RunRecord, f *fault.Fault) error {
	if rec.Router != f.Site.Router || rec.Signal != f.Site.Kind.String() ||
		rec.Port != f.Site.Port || rec.VC != f.Site.VC || rec.Bit != f.Bit ||
		rec.FaultType != f.Type.String() || rec.Cycle != f.Cycle {
		return fmt.Errorf("describes fault %s.bit%d, the plan has %v", rec.Signal, rec.Bit, f)
	}
	for _, o := range []trace.Outcome{rec.Outcome, rec.CautiousOutcome, rec.ForeverOutcome} {
		if !o.Known() {
			return fmt.Errorf("carries unknown outcome %v", o)
		}
	}
	for _, ids := range [][]core.CheckerID{rec.CheckersFired, rec.FirstCycleCheckers} {
		for _, id := range ids {
			if id < 1 || id > core.NumCheckers {
				return fmt.Errorf("lists unknown checker %d", int(id))
			}
		}
	}
	return nil
}
