package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/stats"
	"nocalert/internal/trace"
)

// parseShardFlag parses "-shard i/N" (0-based index); no -shard is 0/1,
// the whole campaign.
func parseShardFlag(s string) (i, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/N, e.g. 0/4)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("invalid -shard %d/%d (index must be 0-based and < N)", i, n)
	}
	return i, n, nil
}

// runShard runs shard idx/n of the campaign, 0/1 being the whole of it,
// and hands back its records. When path names a checkpoint the records
// are kept there, and only that makes the run resumable: an existing
// checkpoint is resumed, a finalized one is not run again. sro carries
// the execution knobs; its Progress field is filled in here.
func runShard(spec campaign.Spec, idx, n int, path string, sro campaign.ShardRunOptions, progress bool) ([]trace.RunRecord, error) {
	sh, err := campaign.PlanShard(spec, idx, n)
	if err != nil {
		return nil, err
	}
	var cp *trace.Checkpoint
	var completed []trace.RunRecord
	if path != "" {
		m, err := sh.Manifest()
		if err != nil {
			return nil, err
		}
		if cp, completed, err = trace.ResumeCheckpoint(path, m); err != nil {
			return nil, err
		}
		defer cp.Close()
	}

	label := fmt.Sprintf("shard %d/%d", idx, n)
	if progress {
		sro.Progress = progressPrinter(os.Stderr, label)
		// The first line appears before the first run completes.
		sro.Progress(len(completed), sh.End-sh.Start, campaign.ShardRunStats{})
	}
	start := time.Now()
	recs, st, err := campaign.RunShard(sh, cp, completed, sro)
	if err != nil {
		if progress {
			fmt.Fprintln(os.Stderr)
		}
		if cp != nil {
			err = fmt.Errorf("%w (checkpoint %s keeps the %d completed runs)", err, path, st.Resumed+st.Executed)
		}
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	fmt.Printf("%s: %d/%d runs in %v (%d resumed from checkpoint, %d of those re-executed and verified, %d newly executed, %d fast-path exits, %d reconverged, %d full-sim, %d forked)\n",
		label, st.Resumed+st.Executed, st.Total, time.Since(start).Round(time.Millisecond),
		st.Resumed, st.Verified, st.Executed, st.FastPathHits, st.Reconverged, st.FullSim, st.Forked)
	if !st.Complete {
		return nil, fmt.Errorf("%s did not complete", label)
	}
	if cp != nil {
		if err := cp.Close(); err != nil {
			return nil, err
		}
		fmt.Printf("checkpoint finalized: %s\n", path)
	}
	return recs, nil
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
	writeReport("merge", merged.Spec, rep, parseFigures(*figs), *out, *goldenPath)
}

// writeShardSummary prints the per-shard outcome breakdown and folds
// the per-shard accumulators (tallies, latency CDFs) into campaign
// totals with the mergeable reducers the merge gate relies on.
func writeShardSummary(shards []*trace.CheckpointData) {
	t := stats.NewTable("Per-shard summary (NoCAlert outcomes)",
		"Shard", "Faults", "TP", "FP", "TN", "FN", "Fast-path")
	var total stats.Tally
	var cdfs []*stats.CDF
	var totalFast int
	for _, sd := range shards {
		var tl stats.Tally
		var lat []int64
		fast := 0
		for i := range sd.Records {
			rec := &sd.Records[i]
			tl.Add(rec.Outcome.String(), 1)
			if rec.Outcome == trace.TruePositive {
				lat = append(lat, rec.Latency)
			}
			if rec.FastPath {
				fast++
			}
		}
		t.AddRow(fmt.Sprintf("%d/%d [%d,%d)", sd.Manifest.Shard, sd.Manifest.Shards, sd.Manifest.Start, sd.Manifest.End),
			int64(len(sd.Records)), tl.Get("TP"), tl.Get("FP"), tl.Get("TN"), tl.Get("FN"),
			int64(fast))
		total.Merge(&tl)
		cdfs = append(cdfs, stats.NewCDF(lat))
		totalFast += fast
	}
	t.AddRow("merged", total.Total(), total.Get("TP"), total.Get("FP"), total.Get("TN"), total.Get("FN"),
		int64(totalFast))
	t.Render(os.Stdout)
	if cdf := stats.MergeCDFs(cdfs...); cdf.N() > 0 {
		fmt.Printf("NoCAlert detection latency over %d true positives: p50=%d p95=%d max=%d cycles\n",
			cdf.N(), cdf.Percentile(0.50), cdf.Percentile(0.95), cdf.Max())
	}
	fmt.Println()
}
