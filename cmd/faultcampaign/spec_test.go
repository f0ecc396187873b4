package main

import (
	"context"
	"flag"
	"path/filepath"
	"testing"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/server"
	"nocalert/internal/trace"
)

// TestShardMergesWithDaemonShard describes one campaign with -post 0 and
// -epoch 0, which it runs as the default 500 and 1500 cycles. Its shard
// 0/2 runs through the CLI's shard path and its shard 1/2 as a daemon job
// submitted with the same zeros: the two checkpoints must name one
// campaign, so that they merge.
func TestShardMergesWithDaemonShard(t *testing.T) {
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse([]string{"-mesh", "4x4", "-rate", "0.12", "-seed", "3", "-inject", "300",
		"-post", "0", "-drain", "5000", "-epoch", "0", "-faults", "16"}); err != nil {
		t.Fatal(err)
	}
	spec, err := sf.spec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cliPath := filepath.Join(dir, "cli-shard0.ndjson")
	if _, err := runShard(spec, 0, 2, cliPath, campaign.ShardRunOptions{Workers: 1}, false); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{Dir: dir, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(context.Background())
	submitted := campaign.Spec{MeshW: 4, MeshH: 4, InjectionRate: 0.12, Seed: 3, InjectCycle: 300, DrainDeadline: 5000, NumFaults: 16}
	j, _, err := srv.SubmitJob(submitted, server.SubmitOptions{Shard: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		v := srv.JobViews()[0]
		if v.Status.Terminal() {
			if v.Status != server.StatusDone {
				t.Fatalf("daemon shard finished as %s (%s)", v.Status, v.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon shard did not finish within a minute")
		}
	}

	var shards []*trace.CheckpointData
	for _, p := range []string{cliPath, trace.ShardCheckpointPath(dir, j.SpecHash, 1, 2)} {
		cd, err := trace.ReadCheckpointFile(p)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, cd)
	}
	if _, err := campaign.MergeShards(shards); err != nil {
		t.Fatalf("the CLI's shard and the daemon's shard of one campaign do not merge: %v", err)
	}
}
