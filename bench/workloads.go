package main

import (
	"fmt"
	"math"
	"runtime"

	"nocalert/internal/campaign"
	"nocalert/internal/fault"
	"nocalert/internal/rng"
)

// workload is one named set of inputs. Everything but Seed and the
// scaled fault count is fixed here; the program under test only ever
// sees the campaign.Spec / campaign.Options built from it.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// and the README quote it).
	Why string
	// Spec carries mesh, rate and cycle parameters. Seed and NumFaults
	// are filled in by build.
	Spec campaign.Spec
	// N is the full-scale fault count; a plan's Scale multiplies it.
	N int
	// Workers is the campaign worker-pool size. Two-worker workloads
	// are absent (never run serially under a parallel name) on a
	// one-core box.
	Workers int
	// Permanent draws the faults from the universe's credit-counter
	// register bits instead of all of it and types them fault.Permanent
	// (see permanentFaults).
	Permanent bool
	// ContractSeeds x ContractPasses is what one acceptance-driver run
	// measures (see plan and contractScale): that many campaigns, each
	// that many times, chosen to fill about contractSeconds on the
	// reference box. Where the cost per fault follows the seed (the
	// traffic at the injection cycle, the fault sample) the time goes to
	// campaigns, two passes each; w8x8_fixedcost and svc_fleet8 (their
	// time is the golden warm-up) and w8x8_permanent (every run costs the
	// same 2700 cycles) hardly follow it and spend theirs on passes of
	// one campaign.
	ContractSeeds, ContractPasses int
	// Fleet, when non-nil, dispatches the spec through coordinator.Run
	// over in-process daemons instead of calling campaign.Run.
	Fleet *fleetShape
}

// fleetShape sizes the in-process service fleet of a fleet workload.
type fleetShape struct {
	Daemons     int
	Shards      int
	MaxInFlight int
}

func spec8x8() campaign.Spec {
	return campaign.Spec{
		MeshW: 8, MeshH: 8, VCs: 4, InjectionRate: 0.05,
		InjectCycle: 300, PostInjectRun: 500, DrainDeadline: 10000,
		Epoch: 1500, HopLatency: 1,
	}
}

// workloads returns the benchmark's seven workloads. Mesh, rate and
// cycle parameters are never scaled; only N is.
func workloads() []workload {
	marginal := spec8x8()

	fixed := spec8x8()
	fixed.InjectCycle = 0
	fixed.InjectCycles = []int64{0, 16000, 32000}

	drain := spec8x8()
	drain.MeshW, drain.MeshH, drain.InjectionRate = 16, 16, 0.02

	window := campaign.Spec{
		MeshW: 4, MeshH: 4, VCs: 4, InjectionRate: 0.12,
		InjectCycle: 4000, PostInjectRun: 400, DrainDeadline: 5000,
		Epoch: 400, HopLatency: 1,
	}

	fleet := spec8x8()
	fleet.InjectCycle = 0
	fleet.InjectCycles = []int64{0, 32000}

	return []workload{
		{
			Name: "w8x8_marginal", Spec: marginal, N: 4096, Workers: 1, ContractSeeds: 5, ContractPasses: 1,
			Why: "paper-scale 8x8 mesh, large universe: golden warm-up is a few % of wall, so this isolates the marginal cost per fault",
		},
		{
			Name: "w8x8_fixedcost", Spec: fixed, N: 96, Workers: 1, ContractSeeds: 1, ContractPasses: 10,
			Why: "the paper's injection cycles 0/16K/32K with few faults: golden mainline and group contexts dominate, only a fixed-cost change moves it",
		},
		{
			Name: "w16x16_drain", Spec: drain, N: 512, Workers: 1, ContractSeeds: 5, ContractPasses: 2,
			Why: "cone of ~3 routers in a 256-router mesh: full-mesh drain after MaterializeAll and CloneInto dominate, the frontier window does not",
		},
		{
			Name: "w4x4_window", Spec: window, N: 3072, Workers: 1, ContractSeeds: 7, ContractPasses: 2,
			Why: "tiny mesh, long fault-armed window: per-run fixed overheads (fork, compare, bookkeeping) dominate and a drain/cone change should show nothing",
		},
		{
			Name: "w8x8_permanent", Spec: marginal, N: 48, Workers: 1, Permanent: true, ContractSeeds: 1, ContractPasses: 5,
			Why: "permanent credit-counter faults never go quiescent: no fast path, reconvergence, fast-forward or inert skip, every run is 2700 cycles of Network.Step plus checker sweep",
		},
		{
			Name: "w8x8_workers2", Spec: marginal, N: 4096, Workers: 2, ContractSeeds: 5, ContractPasses: 2,
			Why: "w8x8_marginal on two workers: the genuinely multi-core row, shows lock/allocator/GC contention and the serial warm-up's Amdahl share",
		},
		{
			Name: "svc_fleet8", Spec: fleet, N: 1024, Workers: 1, ContractSeeds: 1, ContractPasses: 3,
			Fleet: &fleetShape{Daemons: 2, Shards: 8, MaxInFlight: 1},
			Why:   "8 shards over two in-process daemons: the only workload where checkpoints, MergeShards, the job API and the coordinator do work, every shard recomputes the golden warm-up",
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaledN applies the common scale factor to a workload's fault count.
// A fleet needs at least one fault per shard; everything else needs two
// (the marginal cost is measured over N-1 runs).
func (w *workload) scaledN(scale float64) int {
	n := int(math.Round(float64(w.N) * scale))
	floor := 2
	if w.Fleet != nil {
		floor = w.Fleet.Shards
	}
	if n < floor {
		n = floor
	}
	return n
}

// threads is how many campaign threads the workload runs at once: the
// worker pool, times the daemons of a fleet.
func (w *workload) threads() int {
	if w.Fleet != nil {
		return w.Fleet.Daemons * w.Workers
	}
	return w.Workers
}

// absent reports why the workload cannot run on this machine ("" when
// it can). The harness never exceeds nproc threads of campaign work.
func (w *workload) absent() string {
	if t := w.threads(); t > runtime.NumCPU() {
		return fmt.Sprintf("needs %d campaign threads, machine has %d cores", t, runtime.NumCPU())
	}
	return ""
}

// build generates the program's inputs from the seed: the spec (traffic
// and fault sampling both derive from Spec.Seed) and the options handed
// to campaign.Run.
func (w *workload) build(seed uint64, scale float64) (campaign.Spec, campaign.Options) {
	spec := w.Spec
	spec.Seed = seed
	spec.NumFaults = w.scaledN(scale)
	opts := spec.Options()
	if w.Permanent {
		opts.Faults = permanentFaults(spec)
	} else {
		opts.Faults = spec.Universe()
	}
	opts.Workers = w.Workers
	return spec, opts
}

// permanentFaults draws spec.NumFaults permanent faults, by spec.Seed,
// from the credit-counter register bits of the spec's whole universe.
// A permanent fault anywhere else either loses a flit, so that the
// network steps to the drain deadline and beyond (11 700 cycles), or it
// does not (2700), and which of the two depends on the site and the
// traffic: a sample of all sites then costs what its mix happens to be.
// An off-by-2^b credit count keeps the plane live on every cycle, as any
// permanent fault does, but loses nothing: every run drains and steps
// the same 2700 cycles (none of some 800 sampled over three seeds did otherwise).
func permanentFaults(spec campaign.Spec) []fault.Fault {
	n := spec.NumFaults
	spec.NumFaults = 0 // the whole universe, in enumeration order
	var pool []fault.Fault
	for _, f := range spec.Universe() {
		if f.Site.Kind == fault.CreditCountReg {
			f.Type = fault.Permanent
			pool = append(pool, f)
		}
	}
	picked := make([]fault.Fault, n)
	for i, j := range rng.New(spec.Seed, 0xbe7c).Perm(len(pool))[:n] {
		picked[i] = pool[j]
	}
	return picked
}
