package coordinator

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/server"
	"nocalert/internal/trace"
)

// testSpec is the golden 4×4 workload with a reduced fault sample.
func testSpec(faults int) campaign.Spec {
	return campaign.Spec{
		MeshW: 4, MeshH: 4, VCs: 4,
		InjectionRate: 0.12,
		Seed:          3,
		InjectCycle:   300,
		PostInjectRun: 400,
		DrainDeadline: 5000,
		Epoch:         400,
		HopLatency:    1,
		NumFaults:     faults,
	}
}

// referenceReport runs the campaign unsharded on this machine and
// renders its report JSON — the bytes a distributed dispatch must
// reproduce exactly.
func referenceReport(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	spec = server.NormalizeSpec(spec)
	sh, err := campaign.PlanShard(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sh.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.ckpt.ndjson")
	cp, err := trace.CreateCheckpoint(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.RunShard(sh, cp, nil, campaign.ShardRunOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cd, err := trace.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := campaign.MergeShards([]*trace.CheckpointData{cd})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := merged.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetMember is one in-process worker: a real server.Server behind a
// real HTTP listener.
type fleetMember struct {
	srv *server.Server
	ts  *httptest.Server
}

func startFleet(t *testing.T, n int, cfg server.Config) []fleetMember {
	t.Helper()
	fleet := make([]fleetMember, n)
	for i := range fleet {
		c := cfg
		c.Dir = t.TempDir()
		s, err := server.New(c)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		fleet[i] = fleetMember{srv: s, ts: ts}
		t.Cleanup(func() {
			ts.CloseClientConnections()
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Stop(ctx)
		})
	}
	return fleet
}

func urls(fleet []fleetMember) []string {
	u := make([]string, len(fleet))
	for i := range fleet {
		u[i] = fleet[i].ts.URL
	}
	return u
}

// TestDispatchMatchesSingleMachine is the happy path: a 3-worker fleet
// runs a 6-shard campaign and the merged report is byte-identical to
// the unsharded local run.
func TestDispatchMatchesSingleMachine(t *testing.T) {
	spec := testSpec(24)
	want := referenceReport(t, spec)

	fleet := startFleet(t, 3, server.Config{Concurrency: 1})
	reg := metrics.NewRegistry()
	res, err := Run(context.Background(), spec, Config{
		Workers: urls(fleet),
		Shards:  6,
		Metrics: reg,
		Seed:    1,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := res.Report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("distributed report differs from single-machine run (%d vs %d bytes)", got.Len(), len(want))
	}
	if res.Stats.Requeued != 0 || res.Stats.WorkersDead != 0 {
		t.Fatalf("healthy fleet reported requeues/deaths: %+v", res.Stats)
	}
	if n := reg.Counter(MetricShardsDone).Value(); n != 6 {
		t.Fatalf("%s = %d, want 6", MetricShardsDone, n)
	}
	total := 0
	for _, w := range res.Stats.PerWorker {
		total += w.ShardsDone
	}
	if total != 6 {
		t.Fatalf("per-worker shard tallies sum to %d, want 6", total)
	}
}

// TestDispatchSurvivesWorkerDeath kills one worker mid-campaign — its
// connections severed, its listener gone — and requires the
// coordinator to requeue the forfeited shards onto the survivors and
// still produce the byte-identical report.
func TestDispatchSurvivesWorkerDeath(t *testing.T) {
	spec := testSpec(48)
	want := referenceReport(t, spec)

	fleet := startFleet(t, 3, server.Config{Concurrency: 1})
	victim := fleet[1]

	// Sever the victim the moment it starts running its first shard:
	// the coordinator's event stream to it breaks mid-job and every
	// reconnect is refused, exactly like a machine lost to SIGKILL (the
	// in-process campaign may finish, but its results are unreachable).
	go func() {
		for {
			for _, v := range victim.srv.JobViews() {
				if v.Status == server.StatusRunning {
					victim.ts.CloseClientConnections()
					victim.ts.Close()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	reg := metrics.NewRegistry()
	res, err := Run(context.Background(), spec, Config{
		Workers:        urls(fleet),
		Shards:         8,
		MaxInFlight:    2,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		DeathThreshold: 2,
		MaxAttempts:    8,
		Metrics:        reg,
		Seed:           1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := res.Report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("distributed report differs from single-machine run after worker death")
	}
	if res.Stats.Requeued < 1 {
		t.Fatalf("worker died mid-flight but nothing was requeued: %+v", res.Stats)
	}
	if res.Stats.WorkersDead != 1 || !res.Stats.PerWorker[1].Dead {
		t.Fatalf("victim not recorded dead: %+v", res.Stats)
	}
	if n := reg.Counter(MetricRequeues).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricRequeues, n)
	}
	if n := reg.Counter(MetricShardsDone).Value(); n != 8 {
		t.Fatalf("%s = %d, want 8", MetricShardsDone, n)
	}
	// The survivors must have absorbed the victim's forfeited work.
	if res.Stats.PerWorker[0].ShardsDone+res.Stats.PerWorker[2].ShardsDone != 8-res.Stats.PerWorker[1].ShardsDone {
		t.Fatalf("shard tally does not cover the campaign: %+v", res.Stats.PerWorker)
	}
}

// TestFleetBuildsGoldenOncePerWorker is the benchmark's fleet shape in
// small: eight shards of one two-injection-cycle campaign over two
// daemons. Every shard emits its golden-warmup span, but only each
// daemon's first may say cache=miss; the other six took the daemon's
// artefact, and the merged report is still the unsharded run's.
func TestFleetBuildsGoldenOncePerWorker(t *testing.T) {
	spec := testSpec(48)
	spec.InjectCycle = 0
	spec.InjectCycles = []int64{0, 2000}
	want := referenceReport(t, spec)

	var stream bytes.Buffer
	tr := obs.New(obs.Options{Writer: &stream})
	fleet := startFleet(t, 2, server.Config{Concurrency: 1, CampaignWorkers: 1, Tracer: tr})
	res, err := Run(context.Background(), spec, Config{
		Workers:     urls(fleet),
		Shards:      8,
		MaxInFlight: 1,
		Seed:        1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.Report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("fleet report differs from the single-machine run")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(&stream)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]int{}
	for _, s := range spans {
		if s.Kind == "phase" && s.Name == "golden-warmup" {
			how, _ := s.Attrs["cache"].(string)
			by[how]++
		}
	}
	if by["miss"]+by["hit"] != 8 || by["miss"] < 1 || by["miss"] > 2 {
		t.Errorf("golden-warmup spans by cache attribute: %v, want 8 spans with one miss per daemon that ran a shard", by)
	}
	var hits, misses int64
	for _, m := range fleet {
		hits += m.srv.Registry().Counter(campaign.MetricGoldenCacheHits).Value()
		misses += m.srv.Registry().Counter(campaign.MetricGoldenCacheMisses).Value()
	}
	if int(hits) != by["hit"] || int(misses) != by["miss"] {
		t.Errorf("daemon counters hits=%d misses=%d disagree with the spans %v", hits, misses, by)
	}
}
