package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"nocalert/internal/campaign"
	"nocalert/internal/forever"
	"nocalert/internal/topology"
)

// specFlags are the flags that describe a campaign — mesh, workload,
// fault sample and run parameters — which a local run, a shard and a
// dispatch share.
type specFlags struct {
	mesh, inject       *string
	vcs, faults        *int
	rate               *float64
	seed               *uint64
	epoch, post, drain *int64
}

// addSpecFlags registers the campaign-describing flags on fs. The run
// parameters default to what a campaign runs with when they are left
// unset.
func addSpecFlags(fs *flag.FlagSet) *specFlags {
	return &specFlags{
		mesh:   fs.String("mesh", "8x8", "mesh dimensions WxH"),
		vcs:    fs.Int("vcs", 4, "virtual channels per port"),
		rate:   fs.Float64("rate", 0.05, "injection rate (flits/node/cycle)"),
		inject: fs.String("inject", "0", "fault-injection cycle, or a comma list (e.g. 0,16000,32000) spread round-robin over the sample (paper: 0 and 32000)"),
		faults: fs.Int("faults", 1000, "fault sample size (0 = all locations)"),
		seed:   fs.Uint64("seed", 1, "random seed"),
		epoch:  fs.Int64("epoch", forever.DefaultOptions().Epoch, "ForEVeR epoch length in cycles"),
		post:   fs.Int64("post", campaign.DefaultPostInjectRun, "cycles of continued injection after the fault"),
		drain:  fs.Int64("drain", campaign.DefaultDrainDeadline, "drain deadline in cycles"),
	}
}

// spec returns the campaign the parsed flags describe, normalized as the
// daemon normalizes a submitted spec — a shard checkpoint written here
// carries the identity a daemon's shard of the same campaign does — and
// validated as the daemon validates it, whatever the mode.
func (f *specFlags) spec() (campaign.Spec, error) {
	mesh, err := topology.ParseMesh(*f.mesh)
	if err != nil {
		return campaign.Spec{}, err
	}
	cycles, err := parseInjectCycles(*f.inject)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec := campaign.Spec{
		MeshW: mesh.W, MeshH: mesh.H, VCs: *f.vcs,
		InjectionRate: *f.rate,
		Seed:          *f.seed,
		InjectCycle:   cycles[0],
		PostInjectRun: *f.post,
		DrainDeadline: *f.drain,
		Epoch:         *f.epoch,
		NumFaults:     *f.faults,
	}
	if len(cycles) > 1 {
		spec.InjectCycles = cycles
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, err
	}
	return spec, nil
}

// parseInjectCycles parses the -inject flag: a single cycle or a comma
// list, each non-negative.
func parseInjectCycles(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("invalid -inject %q: cycles must be non-negative integers", s)
		}
		out = append(out, c)
	}
	return out, nil
}
