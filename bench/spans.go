package main

import (
	"sort"

	"nocalert/internal/obs"
)

// spanMetrics folds the traced repetition's span stream into the
// span-sourced per-layer metrics. Self time follows the usual rule: a
// run span's duration minus the part its phase spans cover.
func spanMetrics(out map[string]float64, spans []obs.SpanRecord, s *sample) {
	runs := make(map[string]bool)
	var runDur []float64 // ns
	var runTotal float64
	var peakSum, joins float64
	var frontierRuns int
	for i := range spans {
		sp := &spans[i]
		if sp.Kind != "run" {
			continue
		}
		runs[sp.SpanID] = true
		d := float64(sp.Duration())
		runDur = append(runDur, d)
		runTotal += d
		if peak, ok := sp.Int("frontier_peak_routers"); ok {
			frontierRuns++
			peakSum += float64(peak)
			j, _ := sp.Int("frontier_joins")
			joins += float64(j)
		}
	}
	warmup := goldenWarmupS(spans) * 1e9
	phase := make(map[string]float64) // ns by phase name, run children only
	var phaseTotal float64
	for i := range spans {
		sp := &spans[i]
		if sp.Kind == "phase" && runs[sp.ParentID] {
			d := float64(sp.Duration())
			phase[sp.Name] += d
			phaseTotal += d
		}
	}
	n := float64(s.N)
	perRunUs := func(ns float64) float64 { return ns / n / 1e3 }

	out["campaign.golden_warmup_ms"] = warmup / 1e6
	out["campaign.warm_start_us_per_run"] = perRunUs(phase["warm-start"])
	out["campaign.fault_armed_us_per_run"] = perRunUs(phase["fault-armed"])
	out["campaign.drain_us_per_run"] = perRunUs(phase["drain"])
	out["campaign.horizon_us_per_run"] = perRunUs(phase["horizon"])
	out["campaign.unattributed_us_per_run"] = perRunUs(runTotal - phaseTotal)
	out["campaign.drain_share_of_run"] = ratio(phase["drain"], runTotal)
	out["campaign.span_coverage_share"] = ratio(warmup+runTotal, s.WallS*1e9)
	sort.Float64s(runDur)
	out["campaign.run_us_p50"] = quantileSorted(runDur, 0.50) / 1e3
	out["campaign.run_us_p99"] = quantileSorted(runDur, 0.99) / 1e3
	out["campaign.host_ns_per_sim_cycle"] = ratio(runTotal, float64(s.Counts.SimCycles))
	out["sim.frontier_peak_routers_mean"] = ratio(peakSum, float64(frontierRuns))
	out["sim.frontier_joins_per_run"] = joins / n
	out["obs.spans_per_run"] = float64(len(spans)) / n
}

// goldenWarmupS sums the golden-warmup phase spans: what a dispatch's
// shards spent recomputing the same golden reference.
func goldenWarmupS(spans []obs.SpanRecord) float64 {
	var ns float64
	for i := range spans {
		if sp := &spans[i]; sp.Kind == "phase" && sp.Name == "golden-warmup" {
			ns += float64(sp.Duration())
		}
	}
	return ns / 1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
