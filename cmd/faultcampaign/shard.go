package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
	"nocalert/internal/stats"
	"nocalert/internal/trace"
)

// parseShardFlag parses "-shard i/N" (0-based index).
func parseShardFlag(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/N, e.g. 0/4)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("invalid -shard %d/%d (index must be 0-based and < N)", i, n)
	}
	return i, n, nil
}

// runShardMode executes one shard of the campaign against a resumable
// checkpoint file. Figures are not printed here — a shard is a partial
// campaign; fold the finalized checkpoints with `faultcampaign merge`.
// sro carries the execution knobs; its Progress, Metrics and Context
// fields are filled in here.
func runShardMode(ctx context.Context, spec campaign.Spec, shard, path string, sro campaign.ShardRunOptions, progress bool, reg *metrics.Registry) error {
	idx, n, err := parseShardFlag(shard)
	if err != nil {
		return err
	}
	sh, err := campaign.PlanShard(spec, idx, n)
	if err != nil {
		return err
	}
	m, err := sh.Manifest()
	if err != nil {
		return err
	}
	cp, completed, err := trace.ResumeCheckpoint(path, m)
	if err != nil {
		return err
	}
	defer cp.Close()
	fmt.Printf("shard %d/%d: fault indices [%d,%d) of the %d-fault universe; checkpoint %s holds %d recorded runs\n",
		idx, n, sh.Start, sh.End, len(spec.Universe()), path, len(completed))

	var report func(done, total int)
	if progress {
		report = progressPrinter(os.Stderr, fmt.Sprintf("shard %d/%d", idx, n), reg)
		sro.Progress = func(done, total int, _ campaign.ShardRunStats) {
			report(done, total)
		}
	}

	start := time.Now()
	sro.Metrics = reg
	sro.Context = ctx
	st, err := campaign.RunShard(sh, cp, completed, sro)
	if progress && report != nil {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return fmt.Errorf("shard %d/%d: %w (checkpoint %s keeps the %d completed runs)", idx, n, err, path, st.Resumed+st.Executed)
	}
	fmt.Printf("shard %d/%d: %d/%d runs in %v (%d resumed from checkpoint, %d of those re-executed and verified, %d newly executed, %d fast-path exits, %d reconverged, %d full-sim, %d forked)\n",
		idx, n, st.Resumed+st.Executed, st.Total, time.Since(start).Round(time.Millisecond),
		st.Resumed, st.Verified, st.Executed, st.FastPathHits, st.Reconverged, st.FullSim, st.Forked)
	if !st.Complete {
		return fmt.Errorf("shard %d/%d did not complete", idx, n)
	}
	if err := cp.Close(); err != nil {
		return err
	}
	fmt.Printf("checkpoint finalized: %s\n", path)
	return nil
}

// mergeMain is the `faultcampaign merge` subcommand: fold finalized
// shard checkpoints into the aggregated campaign report.
func mergeMain(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	var (
		out        = fs.String("out", "", "write the merged aggregated report as JSON to this file")
		goldenPath = fs.String("golden", "", "compare the merged records against this committed fixture; exit non-zero on drift")
		figs       = fs.String("fig", "all", figHelp(reportFigureNames))
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: faultcampaign merge [flags] shard0.ndjson shard1.ndjson ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	var shards []*trace.CheckpointData
	for _, p := range paths {
		cd, err := trace.ReadCheckpointFile(p)
		if err != nil {
			log.Fatalf("merge: %s: %v", p, err)
		}
		shards = append(shards, cd)
	}
	merged, err := campaign.MergeShards(shards)
	if err != nil {
		log.Fatalf("merge: %v", err)
	}
	fmt.Printf("merged %d shards: %d records, checksum %s\n\n",
		merged.Shards, len(merged.Records), trace.SumRecords(merged.Records))
	writeShardSummary(shards)

	rep, err := merged.Report()
	if err != nil {
		log.Fatalf("merge: %v", err)
	}
	printFigures(os.Stdout, rep, parseFigures(*figs))

	if *out != "" {
		writeReportJSON(rep, *out)
	}
	if *goldenPath != "" {
		checkGolden("merge", merged, *goldenPath)
	}
}

// writeShardSummary prints the per-shard outcome breakdown and folds
// the per-shard accumulators (tallies, latency CDFs) into campaign
// totals with the mergeable reducers the merge gate relies on.
func writeShardSummary(shards []*trace.CheckpointData) {
	t := stats.NewTable("Per-shard summary (NoCAlert outcomes)",
		"Shard", "Faults", "TP", "FP", "TN", "FN", "Fast-path", "Wall (s)")
	var total stats.Tally
	var cdfs []*stats.CDF
	var totalFast int
	var totalWall float64
	for _, sd := range shards {
		var tl stats.Tally
		var lat []int64
		fast := 0
		wall := 0.0
		for i := range sd.Records {
			rec := &sd.Records[i]
			tl.Add(rec.Outcome.String(), 1)
			if rec.Outcome == trace.TruePositive {
				lat = append(lat, rec.Latency)
			}
			if rec.FastPath {
				fast++
			}
			wall += rec.WallSeconds
		}
		t.AddRow(fmt.Sprintf("%d/%d [%d,%d)", sd.Manifest.Shard, sd.Manifest.Shards, sd.Manifest.Start, sd.Manifest.End),
			int64(len(sd.Records)), tl.Get("TP"), tl.Get("FP"), tl.Get("TN"), tl.Get("FN"),
			int64(fast), fmt.Sprintf("%.2f", wall))
		total.Merge(&tl)
		cdfs = append(cdfs, stats.NewCDF(lat))
		totalFast += fast
		totalWall += wall
	}
	t.AddRow("merged", total.Total(), total.Get("TP"), total.Get("FP"), total.Get("TN"), total.Get("FN"),
		int64(totalFast), fmt.Sprintf("%.2f", totalWall))
	t.Render(os.Stdout)
	if cdf := stats.MergeCDFs(cdfs...); cdf.N() > 0 {
		fmt.Printf("NoCAlert detection latency over %d true positives: p50=%d p95=%d max=%d cycles\n",
			cdf.N(), cdf.Percentile(0.50), cdf.Percentile(0.95), cdf.Max())
	}
	fmt.Println()
}
