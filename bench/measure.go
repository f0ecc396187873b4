package main

import (
	"fmt"
	"os"
	"time"
)

// runner executes one repetition: in a fresh process for real
// measurements (execRep), in-process for the package's own tests.
type runner func(repConfig) (*sample, error)

// plan says how one workload is measured: Seeds campaigns, whose seeds
// derive from Seed (campaignSeed), each timed Passes times. A pass runs
// every campaign once, so a slow spell of the host falls on all of them
// alike and leaves the other passes clean.
type plan struct {
	Seed   uint64
	Scale  float64
	Seeds  int
	Passes int
	// Seconds, when > 0, skips the remaining passes once the run would
	// end nearer to it without a pass as long as the last than with it
	// (never before minPasses): a slower machine measures the same
	// campaigns fewer times instead of overrunning the acceptance
	// driver's budget.
	Seconds float64
	// Traced adds the one traced repetition, of the campaign Seed itself,
	// that yields the per-layer metrics.
	Traced bool
	// TmpBase is where repetitions keep service state, inside the
	// checkout.
	TmpBase string
}

// workloadResult is one workload's measurement: per-repetition samples
// of the end-to-end metrics, single values of the per-layer metrics and
// the correctness tally.
type workloadResult struct {
	Name   string `json:"name"`
	Absent string `json:"absent,omitempty"`
	N      int    `json:"n"`
	Reps   int    `json:"reps"`
	Digest string `json:"digest"`
	// RepSeeds is the campaign seed of each timed repetition, in the
	// order of the Samples.
	RepSeeds []uint64 `json:"rep_seeds"`
	// Attempted is runs attempted over all repetitions; Failed is how
	// many of them cannot be trusted (see sample.Failed, plus digest or
	// exact-count disagreement between repetitions or with the pin).
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Notes     []string             `json:"notes,omitempty"`
	Samples   map[string][]float64 `json:"end_to_end"`
	Layer     map[string]float64   `json:"per_layer"`
}

func (r *workloadResult) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failedShare is the failed_share end-to-end metric.
func (r *workloadResult) failedShare() float64 {
	return ratio(float64(r.Failed), float64(r.Attempted))
}

// minPasses is how many passes -seconds never skips: with two, every
// campaign has a second digest to agree with and a second time to
// choose from.
const minPasses = 2

// campaignSeed is the seed of a run's k-th campaign. Campaign 0 runs
// the run's own seed (the pins in expected.json and the traced
// repetition are about that one); the stride is odd and large, so that
// neighbouring run seeds share no campaign.
func campaignSeed(seed uint64, k int) uint64 { return seed + uint64(k)*1000003 }

func measureWorkload(w workload, p plan, run runner, pins *expected) (workloadResult, error) {
	res := workloadResult{Name: w.Name, Samples: map[string][]float64{}, Layer: map[string]float64{}}
	if why := w.absent(); why != "" {
		res.Absent = why
		return res, nil
	}
	one := func(seed uint64, traced, verify bool) (*sample, error) {
		dir, err := repTmpDir(p.TmpBase)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		s, err := run(repConfig{Workload: w.Name, Seed: seed, Scale: p.Scale, Traced: traced,
			VerifyDirect: verify, SpawnedAt: time.Now().UnixNano(), TmpDir: dir})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		return s, nil
	}

	began := time.Now()
	var timed []*sample
	var lastPass time.Duration
	for pass := 0; pass < p.Passes; pass++ {
		passBegan := time.Now()
		if p.Seconds > 0 && pass >= minPasses && passBegan.Add(lastPass/2).Sub(began).Seconds() > p.Seconds {
			break // the run ends nearer the budget without another pass
		}
		for k := 0; k < p.Seeds; k++ {
			// One direct-run check per campaign: the traced repetition
			// makes campaign 0's when there is one.
			s, err := one(campaignSeed(p.Seed, k), false, pass == 0 && !(p.Traced && k == 0))
			if err != nil {
				return res, err
			}
			timed = append(timed, s)
			res.RepSeeds = append(res.RepSeeds, campaignSeed(p.Seed, k))
		}
		lastPass = time.Since(passBegan)
	}
	all, allSeeds := timed, res.RepSeeds
	var traced *sample
	if p.Traced {
		var err error
		if traced, err = one(p.Seed, true, false); err != nil {
			return res, err
		}
		all = append(all[:len(all):len(all)], traced)
		allSeeds = append(allSeeds[:len(allSeeds):len(allSeeds)], p.Seed)
	}

	// Correctness: every repetition's own failures; one digest and one
	// set of exact counts among all repetitions of a campaign; and the
	// pinned digest.
	first := all[0]
	res.N, res.Reps, res.Digest = first.N, len(timed), first.Digest
	ref := map[uint64]*sample{} // a campaign's first repetition
	for i, s := range all {
		res.Attempted += s.N
		res.Failed += s.Failed
		res.Notes = append(res.Notes, s.Notes...)
		if want, ok := pins.lookup(allSeeds[i], w.Name, s.N); ok && want != s.Digest {
			res.fail(s.N-s.Failed, "repetition %d report digest %s disagrees with the pinned %s", i, s.Digest, want)
			continue
		}
		r, ok := ref[allSeeds[i]]
		if !ok {
			ref[allSeeds[i]] = s
			continue
		}
		if s.Digest != r.Digest {
			res.fail(s.N, "repetition %d report digest %s differs from %s, an earlier repetition's of the same campaign", i, s.Digest, r.Digest)
		}
		if s.Counts != r.Counts {
			res.fail(s.N, "repetition %d exact counts %+v differ from %+v, an earlier repetition's of the same campaign", i, s.Counts, r.Counts)
		}
	}

	// The derived per-layer metrics describe campaign 0, the one the
	// traced repetition repeats.
	n := float64(res.N)
	var marginal, fixedShare, allocs, allocKB, ownFPS []float64
	for i, s := range timed {
		res.add("faults_per_sec", n/s.WallS)
		res.add("setup_s", s.SetupS)
		res.add("cpu_s_per_kfault", s.CPUS/n*1000)
		res.add("peak_rss_mb", s.PeakRSSMB)
		if res.RepSeeds[i] != p.Seed {
			continue
		}
		ownFPS = append(ownFPS, n/s.WallS)
		marginal = append(marginal, (s.WallS-s.T1S)/(n-1)*1e6)
		fixedShare = append(fixedShare, ratio(s.T1S, s.WallS))
		allocs = append(allocs, float64(s.Mallocs)/n)
		allocKB = append(allocKB, float64(s.AllocBytes)/n/1024)
	}
	if len(ownFPS) > 0 {
		res.Layer["campaign.marginal_us_per_fault"] = median(marginal)
		res.Layer["campaign.fixed_cost_share"] = median(fixedShare)
		res.Layer["campaign.allocs_per_fault"] = median(allocs)
		res.Layer["campaign.alloc_kb_per_fault"] = median(allocKB)
	}
	c := first.Counts
	res.Layer["campaign.fastpath_share"] = float64(c.FastPath) / n
	res.Layer["campaign.reconverged_share"] = float64(c.Reconverged) / n
	res.Layer["campaign.frontier_run_share"] = float64(c.Frontier) / n
	res.Layer["campaign.fullsim_share"] = float64(c.FullSim) / n
	res.Layer["campaign.forked_share"] = float64(c.Forked) / n
	res.Layer["campaign.sim_cycles_per_fault"] = float64(c.SimCycles) / n
	res.Layer["campaign.synth_cycles_per_fault"] = float64(c.SynthCycles) / n
	res.Layer["campaign.warmstart_cycles_saved_per_fault"] = float64(c.WarmSaved) / n
	res.Layer["campaign.snapshot_mb"] = float64(c.SnapshotBytes) / (1 << 20)
	res.Layer["campaign.timeline_mb"] = float64(c.TimelineBytes) / (1 << 20)
	if traced != nil {
		for k, v := range traced.Layer {
			res.Layer[k] = v
		}
		if len(ownFPS) > 0 {
			res.Layer["obs.trace_overhead_pct"] = 100 * (1 - (n/traced.WallS)/median(ownFPS))
		}
	}
	return res, nil
}

func (r *workloadResult) add(metric string, v float64) {
	r.Samples[metric] = append(r.Samples[metric], v)
}

// value is the one figure a run reports for an end-to-end metric: per
// campaign the best of its repetitions, and the mean of those over the
// campaigns. The best, because the repetitions of a campaign are the
// same computation and what differs between them is the shared host,
// which only ever slows one down or (peak RSS, by where the collector's
// cycles fall) inflates it; the mean over campaigns, because what a
// fault costs depends on the seed's traffic and fault sample, and a run
// that measured a single campaign would report that seed's luck.
func (r *workloadResult) value(d metricDef) float64 {
	var seeds []uint64
	best := map[uint64]float64{}
	for i, v := range r.Samples[d.Name] {
		seed := r.RepSeeds[i]
		b, ok := best[seed]
		if !ok {
			seeds = append(seeds, seed)
		}
		if !ok || (d.Better == "lower") == (v < b) {
			best[seed] = v
		}
	}
	sum := 0.0
	for _, seed := range seeds {
		sum += best[seed]
	}
	return ratio(sum, float64(len(seeds)))
}

// crossWorkload fills the metrics that need two workloads of one suite.
func crossWorkload(results []workloadResult) {
	var serial, parallel *workloadResult
	for i := range results {
		switch results[i].Name {
		case "w8x8_marginal":
			serial = &results[i]
		case "w8x8_workers2":
			parallel = &results[i]
		}
	}
	if serial == nil || parallel == nil || serial.Absent != "" || parallel.Absent != "" {
		return // absent, never a serial run under a parallel name
	}
	w, _ := findWorkload(parallel.Name)
	speedup := ratio(median(parallel.Samples["faults_per_sec"]), median(serial.Samples["faults_per_sec"]))
	parallel.Layer["campaign.parallel_speedup"] = speedup
	parallel.Layer["campaign.parallel_efficiency"] = speedup / float64(w.Workers)
}
