package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/core"
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
	cd, err := trace.ReadCheckpoint(bytes.NewReader(shardCheckpoint(t, spec, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := campaign.MergeShards([]*trace.CheckpointData{cd})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.Report().WriteJSON(&buf); err != nil {
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
	res, err := Run(context.Background(), spec, Config{
		Workers: urls(fleet),
		Shards:  6,
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

	res, err := Run(context.Background(), spec, Config{
		Workers:        urls(fleet),
		Shards:         8,
		MaxInFlight:    2,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		DeathThreshold: 2,
		MaxAttempts:    8,
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

// countingBody counts what a client reads of a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// countingTransport hands out response bodies that count what is read.
type countingTransport struct{ n atomic.Int64 }

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.n}
	}
	return resp, err
}

// TestClientBoundsViewResponses: a worker answering a submit or a status
// request with a job view of 2 MiB — twice what the server accepts as a
// request — gets a transient error from the client, which reads no more
// than the 1 MiB cap of it.
func TestClientBoundsViewResponses(t *testing.T) {
	huge := `{"id":"` + strings.Repeat("x", 2<<20) + `"}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusCreated)
		}
		io.WriteString(w, huge)
	}))
	defer ts.Close()
	for _, op := range []string{"submit", "status"} {
		tr := &countingTransport{}
		c := &client{base: ts.URL, hc: &http.Client{Transport: tr}}
		var err error
		if op == "submit" {
			_, err = c.submitShard(context.Background(), []byte(`{}`), 0, 1)
		} else {
			_, err = c.status(context.Background(), "job")
		}
		if err == nil || !isTransient(err) {
			t.Errorf("%s: a 2 MiB view gave error %v, want a transient one", op, err)
		}
		if n := tr.n.Load(); n > maxViewBytes {
			t.Errorf("%s: the client read %d bytes of the response, past the %d cap", op, n, maxViewBytes)
		}
	}
}

// shardCheckpoint runs shard i of n of spec on this machine and returns
// its finalized checkpoint's bytes, as a worker serves them.
func shardCheckpoint(t *testing.T, spec campaign.Spec, i, n int) []byte {
	t.Helper()
	spec.Normalize()
	path := filepath.Join(t.TempDir(), "shard.ckpt.ndjson")
	if _, _, err := campaign.RunShard(spec, i, n, path, campaign.ShardRunOptions{Exec: campaign.Exec{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveCheckpoints is a worker that takes every shard submitted to it as
// a job already done, and answers the job's checkpoint with ckpts[shard].
func serveCheckpoints(t *testing.T, ckpts [][]byte) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			i, _ = strconv.Atoi(r.URL.Query().Get("shard"))
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(server.View{ID: fmt.Sprintf("j%d", i), Status: server.StatusDone})
		default:
			if _, err := fmt.Sscanf(r.URL.Path, "/v1/jobs/j%d/checkpoint", &i); err != nil || i >= len(ckpts) {
				http.NotFound(w, r)
				return
			}
			w.Write(ckpts[i])
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDispatchRefusesForeignCheckpoints: a worker that answers every shard
// with the finalized checkpoint of the same shard of another campaign — a
// checkpoint MergeShards would take, its shards agreeing with each other
// — gets its shards requeued, never merged. Alone, it fails the dispatch;
// beside an honest worker, the honest one's checkpoints make the report,
// the unsharded run's byte for byte.
func TestDispatchRefusesForeignCheckpoints(t *testing.T) {
	spec := testSpec(8)
	other := spec
	other.Seed = 4
	foreign := serveCheckpoints(t, [][]byte{shardCheckpoint(t, other, 0, 2), shardCheckpoint(t, other, 1, 2)})
	cfg := Config{
		Shards:         2,
		MaxInFlight:    1,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		DeathThreshold: 1,
		Seed:           1,
	}

	var mu sync.Mutex
	var log strings.Builder
	cfg.Workers = []string{foreign.URL}
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&log, format+"\n", args...)
	}
	if res, err := Run(context.Background(), spec, cfg); err == nil {
		t.Fatalf("a fleet returning another campaign's checkpoints dispatched: %+v", res.Stats)
	}
	if !strings.Contains(log.String(), "dispatched 0/2") && !strings.Contains(log.String(), "dispatched 1/2") {
		t.Errorf("the refusal does not name the shard dispatched:\n%s", log.String())
	}

	want := referenceReport(t, spec)
	fleet := startFleet(t, 1, server.Config{Concurrency: 1})
	cfg.Workers, cfg.Logf, cfg.DeathThreshold = []string{foreign.URL, fleet[0].ts.URL}, t.Logf, 2
	res, err := Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.Report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("a fleet with a foreign worker reported other than the unsharded run")
	}
	if res.Stats.PerWorker[0].ShardsDone != 0 {
		t.Errorf("the foreign worker is credited with %d shards", res.Stats.PerWorker[0].ShardsDone)
	}
}

// tamperedCheckpoint returns ckpt, a finalized shard checkpoint, with the
// record of fault index moved to its bit's neighbour and the footer
// recomputed: the manifest is right and the file verifies, but the record
// names a fault the plan does not have there.
func tamperedCheckpoint(t *testing.T, ckpt []byte, index int) []byte {
	t.Helper()
	cd, err := trace.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tampered.ndjson")
	cp, err := trace.CreateCheckpoint(path, &cd.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range cd.Records {
		if rec.Index == index {
			rec.Bit ^= 1
		}
		if err := cp.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDispatchRequeuesForeignRecords: a worker that answers each shard
// with its finalized checkpoint, manifest right, but one record naming
// another fault (record 6 of shard 1, record 2 of shard 0), gets the shard
// requeued, the refusal naming the shard dispatched; beside an honest
// worker the dispatch succeeds with the unsharded run's report.
func TestDispatchRequeuesForeignRecords(t *testing.T) {
	spec := testSpec(8)
	tampered := serveCheckpoints(t, [][]byte{
		tamperedCheckpoint(t, shardCheckpoint(t, spec, 0, 2), 2),
		tamperedCheckpoint(t, shardCheckpoint(t, spec, 1, 2), 6),
	})
	fleet := startFleet(t, 1, server.Config{Concurrency: 1})
	var mu sync.Mutex
	var log strings.Builder
	res, err := Run(context.Background(), spec, Config{
		Workers:        []string{tampered.URL, fleet[0].ts.URL},
		Shards:         2,
		MaxInFlight:    1,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		DeathThreshold: 2,
		Seed:           1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	var got bytes.Buffer
	if err := res.Report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceReport(t, spec)) {
		t.Fatal("a fleet with a worker returning foreign records reported other than the unsharded run")
	}
	if res.Stats.Requeued < 1 || res.Stats.PerWorker[0].ShardsDone != 0 {
		t.Errorf("the tampered worker's shards: %d requeued, %d credited to it; want at least one requeued and none credited",
			res.Stats.Requeued, res.Stats.PerWorker[0].ShardsDone)
	}
	if !strings.Contains(log.String(), "dispatched 0/2") && !strings.Contains(log.String(), "dispatched 1/2") {
		t.Errorf("the refusal does not name the shard dispatched:\n%s", log.String())
	}
}

// TestClientBoundsCheckpoints: a shard checkpoint fits the bound the
// coordinator reads it under, and so does a record line at its longest;
// the same checkpoint padded with 2 MiB of blank lines, which
// trace.ReadCheckpoint would skip, is a transient error of which the
// client reads no more than the bound.
func TestClientBoundsCheckpoints(t *testing.T) {
	checkers := make([]core.CheckerID, core.NumCheckers)
	for i := range checkers {
		checkers[i] = core.CheckerID(i + 1)
	}
	longest := trace.RunRecord{
		Index: math.MaxInt64, Router: math.MaxInt64, Signal: strings.Repeat("x", 24), Port: math.MaxInt64,
		VC: math.MinInt64, Bit: math.MaxInt64, FaultType: "intermittent", Cycle: math.MaxInt64,
		Fired: true, Drained: true, FastPath: true, Malicious: true, Unbounded: true,
		Outcome: trace.FalseNegative, Latency: math.MinInt64, CautiousOutcome: trace.FalseNegative, CautiousLatency: math.MinInt64,
		ForeverOutcome: trace.FalseNegative, ForeverLatency: math.MinInt64,
		CheckersFired: checkers, FirstCycleCheckers: checkers, WallSeconds: -math.MaxFloat64,
	}
	if b, _ := json.Marshal(&longest); len(b)+1 > maxRecordBytes {
		t.Errorf("a record line of %d bytes does not fit maxRecordBytes = %d", len(b)+1, maxRecordBytes)
	}

	spec := testSpec(8)
	spec.Normalize()
	specJSON, err := specPayload(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := shardCheckpoint(t, spec, 0, 2)
	limit := int64(len(specJSON)) + checkpointSlack + 4*maxRecordBytes // shard 0 of 2 of 8 faults
	padded := append(append([]byte(nil), ckpt...), bytes.Repeat([]byte("\n"), 2<<20)...)
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{{"finalized", ckpt, true}, {"padded", padded, false}} {
		ts := serveCheckpoints(t, [][]byte{tc.body})
		tr := &countingTransport{}
		c := &client{base: ts.URL, hc: &http.Client{Transport: tr}}
		cd, err := c.checkpoint(context.Background(), "j0", limit)
		if tc.ok && (err != nil || len(cd.Records) != 4) {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !isTransient(err)) {
			t.Errorf("%s: error %v, want a transient one", tc.name, err)
		}
		if n := tr.n.Load(); n > limit+1 {
			t.Errorf("%s: the client read %d bytes, past the %d bound", tc.name, n, limit)
		}
	}
}

// TestProgressMonotonicUnderRequeue holds the fleet's progress fold to
// its promises. A requeued shard starting over at 0 keeps its high-water
// mark, so Done never goes down; a +Inf or NaN rate sample (a resumed
// shard replaying its checkpoint at t≈0) never reaches Rate; a merged
// shard, its real checkpoint through the gate, counts its planned size
// and no rate; and once every shard is merged there is no ETA.
func TestProgressMonotonicUnderRequeue(t *testing.T) {
	spec := testSpec(96)
	spec.Normalize()
	plan, err := campaign.PlanShards(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	var seen []ProgressUpdate
	r := &run{
		cfg:     Config{Progress: func(u ProgressUpdate) { seen = append(seen, u) }},
		plan:    plan,
		total:   96,
		doneCh:  make(chan struct{}),
		results: map[int]*trace.CheckpointData{},
		done:    make([]int, 3),
		rate:    make([]float64, 3),
		stats:   Stats{PerWorker: make([]WorkerStats, 1)},
	}
	check := func(what string, done int, rate float64) {
		t.Helper()
		r.delivered.Wait()
		if u := seen[len(seen)-1]; u.Done != done || u.Total != 96 || u.Rate != rate {
			t.Fatalf("%s: %+v, want Done %d of 96 at %v faults/sec", what, u, done, rate)
		}
	}

	r.progress(0, 20, 10)
	r.progress(1, 16, 8)
	r.progress(2, 30, 12)
	check("healthy fleet", 66, 30)
	if u := seen[len(seen)-1]; !u.ETAOK || u.ETA != time.Second {
		t.Fatalf("healthy fleet: ETA %v ok=%v, want 1s (30 runs at 30 faults/sec)", u.ETA, u.ETAOK)
	}

	r.progress(1, 0, 0)
	check("shard 1 requeued, starting over", 66, 22)
	r.progress(1, 24, math.Inf(1))
	check("+Inf sample", 74, 22)
	r.progress(2, 31, math.NaN())
	check("NaN sample", 75, 10)

	for i := 0; i < 3; i++ {
		cd, err := trace.ReadCheckpoint(bytes.NewReader(shardCheckpoint(t, spec, i, 3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.record(i, 0, cd); err != nil {
			t.Fatal(err)
		}
	}
	check("every shard merged", 96, 0)
	if u := seen[len(seen)-1]; u.ShardsDone != 3 || u.ETAOK {
		t.Fatalf("every shard merged: %+v, want 3 shards done and no ETA", u)
	}
	for i, u := range seen {
		if i > 0 && u.Done < seen[i-1].Done {
			t.Errorf("update %d: Done went down from %d to %d", i, seen[i-1].Done, u.Done)
		}
		if math.IsInf(u.Rate, 0) || math.IsNaN(u.Rate) || u.Rate < 0 {
			t.Errorf("update %d: Rate %v", i, u.Rate)
		}
	}
}

// TestProgressCallbackHoldsNoSlot: the Progress callback runs outside
// the dispatch slots. A worker runs two shards, each job sending one
// progress event and then its done status; the first update's callback
// blocks until both shards' checkpoints have been fetched, which the two
// slots do only if neither waits on it. Updates still arrive in order, and
// the last, the whole campaign merged, before Run returns.
func TestProgressCallbackHoldsNoSlot(t *testing.T) {
	spec := testSpec(8)
	ckpts := [][]byte{shardCheckpoint(t, spec, 0, 2), shardCheckpoint(t, spec, 1, 2)}
	var fetches atomic.Int32
	bothFetched := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var i int
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			i, _ = strconv.Atoi(r.URL.Query().Get("shard"))
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(server.View{ID: fmt.Sprintf("j%d", i), Status: server.StatusRunning})
		case strings.HasSuffix(r.URL.Path, "/events"):
			fmt.Sscanf(r.URL.Path, "/v1/jobs/j%d/events", &i)
			enc := json.NewEncoder(w)
			enc.Encode(server.Event{Type: "progress", Status: server.StatusRunning, Done: 1, Total: 4, FaultsPerSec: 10})
			enc.Encode(server.Event{Type: "status", Status: server.StatusDone, Done: 4, Total: 4})
		default:
			if _, err := fmt.Sscanf(r.URL.Path, "/v1/jobs/j%d/checkpoint", &i); err != nil || i >= len(ckpts) {
				http.NotFound(w, r)
				return
			}
			if fetches.Add(1) == 2 {
				close(bothFetched)
			}
			w.Write(ckpts[i])
		}
	}))
	defer ts.Close()

	var (
		mu       sync.Mutex
		seen     []ProgressUpdate
		returned bool
	)
	_, err := Run(context.Background(), spec, Config{
		Workers:     []string{ts.URL},
		Shards:      2,
		MaxInFlight: 2,
		Seed:        1,
		Logf:        t.Logf,
		Progress: func(u ProgressUpdate) {
			mu.Lock()
			first := len(seen) == 0
			seen = append(seen, u)
			if returned {
				t.Errorf("update %+v after Run returned", u)
			}
			mu.Unlock()
			if !first {
				return
			}
			select {
			case <-bothFetched:
			case <-time.After(20 * time.Second):
				t.Error("the second checkpoint was not fetched while the Progress callback ran: a dispatch slot waits on it")
			}
		},
	})
	mu.Lock()
	defer mu.Unlock()
	returned = true
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range seen {
		if i > 0 && (u.Done < seen[i-1].Done || u.ShardsDone < seen[i-1].ShardsDone) {
			t.Errorf("update %d %+v goes back from %+v", i, u, seen[i-1])
		}
	}
	if last := seen[len(seen)-1]; last.Done != 8 || last.Total != 8 || last.ShardsDone != 2 {
		t.Errorf("last update before Run returned: %+v, want 8 of 8 runs and both shards", last)
	}
}

// waitJobsDone polls the worker until n jobs are on it, every one done.
func waitJobsDone(t *testing.T, s *server.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		views := s.JobViews()
		done := 0
		for _, v := range views {
			if v.Status == server.StatusDone {
				done++
			}
		}
		if len(views) == n && done == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("the worker did not finish %d jobs: %+v", n, s.JobViews())
}

// TestProgressCountsShardsFoundDone: a shard the worker has already
// finished (a dispatch re-run after the coordinator died) is taken as a
// dedupe hit without a single event, and still counts toward Done, so
// the last update reads the whole campaign.
func TestProgressCountsShardsFoundDone(t *testing.T) {
	spec := testSpec(24)
	fleet := startFleet(t, 1, server.Config{Concurrency: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := fleet[0].srv.SubmitJob(spec, server.SubmitOptions{Shard: i, Shards: 3}); err != nil {
			t.Fatal(err)
		}
	}
	waitJobsDone(t, fleet[0].srv, 3)

	var last ProgressUpdate
	if _, err := Run(context.Background(), spec, Config{
		Workers:  urls(fleet),
		Shards:   3,
		Seed:     1,
		Logf:     t.Logf,
		Progress: func(u ProgressUpdate) { last = u },
	}); err != nil {
		t.Fatal(err)
	}
	if last.Done != last.Total || last.Total != 24 || last.ShardsDone != 3 {
		t.Fatalf("last progress update %+v, want Done == Total == 24 and 3 shards done", last)
	}
}

// TestRedispatchReattaches: a dispatch run again with the same spec and
// shard count reattaches to every shard the worker holds, whether the
// first dispatch was canceled with two of six shards done or ran one shard
// to the end. Nothing runs twice (one job a shard on the worker, nothing
// requeued) and the report is the unsharded run's, byte for byte: the plan
// is a function of the spec and the shard count, and what the coordinator
// would persist the worker already keeps.
func TestRedispatchReattaches(t *testing.T) {
	spec := testSpec(24)
	want := referenceReport(t, spec)
	for _, c := range []struct {
		name     string
		shards   int
		cancelAt int // shards done when the first dispatch is canceled; 0 runs it to the end
	}{{"six shards, canceled at two", 6, 2}, {"one shard, run to the end", 1, 0}} {
		t.Run(c.name, func(t *testing.T) {
			fleet := startFleet(t, 1, server.Config{Concurrency: 1})
			cfg := Config{Workers: urls(fleet), Shards: c.shards, Seed: 1, Logf: t.Logf}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelAt > 0 {
				cfg.Progress = func(u ProgressUpdate) {
					if u.ShardsDone >= c.cancelAt {
						cancel()
					}
				}
				if _, err := Run(ctx, spec, cfg); !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled dispatch returned %v, want context.Canceled", err)
				}
			} else if _, err := Run(ctx, spec, cfg); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d jobs on the worker after the first dispatch", len(fleet[0].srv.JobViews()))

			cfg.Progress = nil
			res, err := Run(context.Background(), spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.Report.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatal("the re-dispatched report differs from the single-machine run")
			}
			if n := len(fleet[0].srv.JobViews()); n != c.shards || res.Stats.Requeued != 0 {
				t.Fatalf("%d jobs on the worker and %d requeued after the re-dispatch, want %d and 0", n, res.Stats.Requeued, c.shards)
			}
		})
	}
}
