package main

// metricDef names one metric. The table below is the single source for
// BENCHMARK.json (-manifest prints it) and the emission check in
// bench_test.go; README.md's tables repeat it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
	// Source says how the value is taken: "span" (existing obs phase
	// spans of the traced repetition), "probe" (the harness timing a
	// public function on the workload's own network or records),
	// "report" (the campaign's own counts) or "derived" (arithmetic).
	Source string
	// Exact marks simulated counts that must repeat exactly between two
	// runs of one commit at one seed.
	Exact bool
	// SuiteOnly marks metrics that need two workloads (or that cannot be
	// zero-safe in the driver's contract); the full-suite output carries
	// them, BENCHMARK.json does not.
	SuiteOnly bool
	// Moves is the prediction: which end-to-end metric on which workload
	// the metric should move. Everywhere else the prediction is no change.
	Moves string
}

// endToEnd are the metrics a user of the campaign engine sees.
var endToEnd = []metricDef{
	{Name: "faults_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25,
		Moves: "judged fault runs / wall time of the campaign.Run or coordinator.Run call, warm-up included"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "process start to the first Progress callback with one run done: the wait before any verdict exists"},
	{Name: "cpu_s_per_kfault", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "user+sys CPU of the repetition / N x 1000: catches a wall-time win bought with a second core"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Moves: "ru_maxrss at the end of the measured section: snapshot ring, transcripts, clone arenas"},
	{Name: "failed_share", Unit: "share", Better: "lower", SuiteOnly: true,
		Moves: "(errored runs + digest mismatches + NoCAlert false negatives + requeued shards) / runs attempted; must be 0, so the driver reads it from correct/attempted/failed instead"},
}

// perLayer lists every per-layer metric, grouped by layer: the name's
// prefix is the internal/ package the metric belongs to.
var perLayer = []metricDef{
	// campaign: spans of the traced repetition.
	{Name: "campaign.golden_warmup_ms", Unit: "ms", Better: "lower", Source: "span",
		Moves: "setup_s, faults_per_sec on w8x8_fixedcost, svc_fleet8"},
	{Name: "campaign.warm_start_us_per_run", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w16x16_drain"},
	{Name: "campaign.fault_armed_us_per_run", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w4x4_window, w8x8_marginal"},
	{Name: "campaign.drain_us_per_run", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w16x16_drain"},
	{Name: "campaign.horizon_us_per_run", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w8x8_marginal, w8x8_permanent"},
	{Name: "campaign.unattributed_us_per_run", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w4x4_window (runOne self time: result assembly, golden compare, bookkeeping)"},
	{Name: "campaign.drain_share_of_run", Unit: "share", Better: "lower", Source: "span",
		Moves: "workload-design check: >= 0.45 on w16x16_drain, <= 0.2 on w4x4_window"},
	{Name: "campaign.span_coverage_share", Unit: "share", Better: "higher", Source: "span",
		Moves: "(golden warm-up + run spans) / traced wall; >= 0.9 on single-worker workloads or the decomposition is missing time"},
	{Name: "campaign.run_us_p50", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec everywhere"},
	{Name: "campaign.run_us_p99", Unit: "us", Better: "lower", Source: "span",
		Moves: "faults_per_sec on w8x8_workers2, svc_fleet8 (the slowest part sets the time)"},
	// campaign: derived from the timed repetitions.
	{Name: "campaign.marginal_us_per_fault", Unit: "us", Better: "lower", Source: "derived",
		Moves: "faults_per_sec on every workload ((wall - t1) / (N - 1))"},
	{Name: "campaign.fixed_cost_share", Unit: "share", Better: "lower", Source: "derived",
		Moves: "faults_per_sec on w8x8_fixedcost, svc_fleet8 (t1 / wall)"},
	{Name: "campaign.allocs_per_fault", Unit: "count", Better: "lower", Source: "derived",
		Moves: "cpu_s_per_kfault, faults_per_sec on w8x8_workers2"},
	{Name: "campaign.alloc_kb_per_fault", Unit: "KB", Better: "lower", Source: "derived",
		Moves: "cpu_s_per_kfault, faults_per_sec on w8x8_workers2"},
	{Name: "campaign.host_ns_per_sim_cycle", Unit: "ns", Better: "lower", Source: "derived",
		Moves: "faults_per_sec on w8x8_permanent (sum of run spans / simulated cycles)"},
	// campaign: exact counts from the report.
	{Name: "campaign.fastpath_share", Unit: "share", Better: "higher", Source: "report", Exact: true,
		Moves: "campaign.sim_cycles_per_fault, hence faults_per_sec, everywhere"},
	{Name: "campaign.reconverged_share", Unit: "share", Better: "higher", Source: "report", Exact: true,
		Moves: "campaign.sim_cycles_per_fault, hence faults_per_sec, everywhere"},
	{Name: "campaign.frontier_run_share", Unit: "share", Better: "higher", Source: "report", Exact: true,
		Moves: "campaign.sim_cycles_per_fault on transient workloads"},
	{Name: "campaign.fullsim_share", Unit: "share", Better: "lower", Source: "report", Exact: true,
		Moves: "faults_per_sec on w16x16_drain, w8x8_permanent"},
	{Name: "campaign.forked_share", Unit: "share", Better: "higher", Source: "report", Exact: true,
		Moves: "campaign.warmstart_cycles_saved_per_fault"},
	{Name: "campaign.sim_cycles_per_fault", Unit: "cycles", Better: "lower", Source: "report", Exact: true,
		Moves: "faults_per_sec, cpu_s_per_kfault on every transient workload; the one cost figure two commits compare without sandbox noise"},
	{Name: "campaign.synth_cycles_per_fault", Unit: "cycles", Better: "higher", Source: "report", Exact: true,
		Moves: "campaign.sim_cycles_per_fault"},
	{Name: "campaign.warmstart_cycles_saved_per_fault", Unit: "cycles", Better: "higher", Source: "report", Exact: true,
		Moves: "faults_per_sec on w4x4_window, w8x8_fixedcost"},
	{Name: "campaign.snapshot_mb", Unit: "MB", Better: "lower", Source: "report", Exact: true,
		Moves: "peak_rss_mb on w8x8_fixedcost, w16x16_drain"},
	{Name: "campaign.timeline_mb", Unit: "MB", Better: "lower", Source: "report", Exact: true,
		Moves: "peak_rss_mb on w8x8_fixedcost, w16x16_drain"},
	{Name: "campaign.parallel_speedup", Unit: "x", Better: "higher", Source: "derived", SuiteOnly: true,
		Moves: "faults_per_sec on w8x8_workers2 (fps(w8x8_workers2) / fps(w8x8_marginal))"},
	{Name: "campaign.parallel_efficiency", Unit: "share", Better: "higher", Source: "derived", SuiteOnly: true,
		Moves: "faults_per_sec on w8x8_workers2 (speed-up / workers)"},
	// campaign: service-side functions, probed on the service run's records.
	{Name: "campaign.plan_shard_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "setup_s on svc_fleet8"},
	{Name: "campaign.merge_shards_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "campaign.report_json_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},

	// sim
	{Name: "sim.step_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w8x8_permanent; setup_s on w8x8_fixedcost"},
	{Name: "sim.step_ref_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "nothing end to end (reference sweep engine, DisableSoA)"},
	{Name: "sim.step_liveplane_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w8x8_permanent (permanent plane armed, inert skip off)"},
	{Name: "sim.drain_step_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w16x16_drain"},
	{Name: "sim.frontier_step_ns", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w4x4_window, w8x8_marginal"},
	{Name: "sim.materialize_all_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w16x16_drain"},
	{Name: "sim.frontier_peak_routers_mean", Unit: "count", Better: "lower", Source: "span", Exact: true,
		Moves: "explains cone size per workload"},
	{Name: "sim.frontier_joins_per_run", Unit: "count", Better: "lower", Source: "span", Exact: true,
		Moves: "explains cone growth per workload"},
	{Name: "sim.clone_into_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w16x16_drain (campaign.warm_start_us_per_run)"},
	{Name: "sim.network_kb", Unit: "KB", Better: "lower", Source: "probe", Exact: true,
		Moves: "peak_rss_mb"},
	{Name: "sim.fingerprint_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "setup_s on w8x8_fixedcost (golden.timeline_observe_us)"},
	{Name: "sim.record_overhead_pct", Unit: "%", Better: "lower", Source: "probe",
		Moves: "setup_s on w8x8_fixedcost"},
	{Name: "sim.recording_bytes_per_cycle", Unit: "bytes", Better: "lower", Source: "probe", Exact: true,
		Moves: "peak_rss_mb (campaign.timeline_mb)"},

	// soa, router, core, forever, golden, fault
	{Name: "soa.state_copy_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "share of sim.clone_into_us"},
	{Name: "router.inert_share_window", Unit: "share", Better: "higher", Source: "probe", Exact: true,
		Moves: "how much the inert skip can save in the post-injection window"},
	{Name: "router.inert_share_drain", Unit: "share", Better: "higher", Source: "probe", Exact: true,
		Moves: "how much the inert skip can save on w16x16_drain vs w4x4_window"},
	{Name: "core.sweep_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w8x8_permanent, w8x8_marginal (Step with core.Engine attached - bare Step, paired per batch)"},
	{Name: "forever.monitor_ns_per_router_cycle", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w8x8_permanent; campaign.horizon_us_per_run on w8x8_marginal (same pairing with forever.Monitor)"},
	{Name: "golden.compare_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w4x4_window (campaign.unattributed_us_per_run)"},
	{Name: "golden.log_build_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on w4x4_window (campaign.unattributed_us_per_run)"},
	{Name: "golden.timeline_observe_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "setup_s on w8x8_fixedcost"},
	{Name: "fault.universe_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "setup_s on w8x8_marginal"},

	// trace
	{Name: "trace.checkpoint_append_us", Unit: "us", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "trace.checkpoint_finalize_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "trace.checkpoint_read_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "trace.checkpoint_bytes_per_run", Unit: "bytes", Better: "lower", Source: "probe",
		Moves: "coordinator.checkpoint_fetch_ms"},
	{Name: "trace.resume_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "nothing on the benchmark's workloads (no repetition resumes)"},

	// server: probed over HTTP against one in-process daemon.
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "setup_s on svc_fleet8 (POST to 201: manifest durable)"},
	{Name: "server.submit_to_first_event_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "setup_s on svc_fleet8"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "setup_s, faults_per_sec on svc_fleet8 (View submitted to started)"},
	{Name: "server.report_fetch_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "nothing on svc_fleet8 (shard jobs serve checkpoints, not reports)"},
	{Name: "server.events_dropped", Unit: "count", Better: "lower", Source: "probe",
		Moves: "nothing unless a subscriber stalls"},

	// coordinator
	{Name: "coordinator.fleet_overhead_ratio", Unit: "x", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8 (fleet wall / direct campaign.Run, workers 2, same spec, same process)"},
	{Name: "coordinator.golden_recompute_s", Unit: "s", Better: "lower", Source: "span",
		Moves: "faults_per_sec on svc_fleet8 (sum over the dispatch's shards of the golden warm-up every job repeats)"},
	{Name: "coordinator.worker_idle_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "coordinator.checkpoint_fetch_ms", Unit: "ms", Better: "lower", Source: "probe",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "coordinator.retries", Unit: "count", Better: "lower", Source: "report",
		Moves: "faults_per_sec on svc_fleet8"},
	{Name: "coordinator.requeued", Unit: "count", Better: "lower", Source: "report",
		Moves: "failed count on svc_fleet8"},

	// obs
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Source: "derived",
		Moves: "nothing end to end (timed repetitions run with tracing off); the ROADMAP's < 5 % budget"},
	{Name: "obs.spans_per_run", Unit: "count", Better: "lower", Source: "span", Exact: true,
		Moves: "obs.trace_overhead_pct"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Source: "probe",
		Moves: "obs.trace_overhead_pct"},
}

// contractMetrics returns the metrics BENCHMARK.json lists: every
// workload emits each of them exactly once.
func contractMetrics(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if !d.SuiteOnly {
			out = append(out, d)
		}
	}
	return out
}
