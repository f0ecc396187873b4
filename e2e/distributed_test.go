//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The distributed gate runs the golden 4×4 campaign (the spec behind
// testdata/golden_4x4_seed3.json) across a 3-worker fleet.
var goldenArgs = []string{
	"-mesh", "4x4", "-vcs", "4", "-rate", "0.12", "-seed", "3",
	"-inject", "300", "-post", "400", "-drain", "5000", "-epoch", "400",
	"-faults", "96",
}

// fleetJobs lists a worker's jobs through the (unauthenticated) read
// API; reads stay open on an authed fleet.
func fleetJobs(t *testing.T, base string) []view {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		return nil // worker may already be dead
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []view `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	return body.Jobs
}

// TestDistributedCampaignSurvivesWorkerKill is the CI distributed
// gate: a coordinator dispatches the golden campaign to a 3-worker
// authed fleet, one worker is SIGKILLed mid-flight, and the merged
// report must still be byte-identical to the unsharded CLI run (and
// bit-identical to the committed golden fixture), with the forfeited
// shards visibly requeued onto survivors.
func TestDistributedCampaignSurvivesWorkerKill(t *testing.T) {
	daemonBin, cliBin := binaries(t)

	// Reference: the unsharded single-machine CLI run.
	cliJSON := filepath.Join(t.TempDir(), "cli.json")
	cli := exec.Command(cliBin, append(append([]string{}, goldenArgs...),
		"-progress=false", "-fig", "none", "-json", cliJSON)...)
	if out, err := cli.CombinedOutput(); err != nil {
		t.Fatalf("faultcampaign: %v\n%s", err, out)
	}
	want, err := os.ReadFile(cliJSON)
	if err != nil {
		t.Fatal(err)
	}

	// A 3-worker fleet with bearer-token auth on.
	const authFlag = "ci=tok-e2e,ops=tok-ops"
	workers := make([]*daemon, 3)
	for i := range workers {
		workers[i] = startDaemon(t, daemonBin, t.TempDir(),
			"-workers", "1", "-auth", authFlag)
	}
	victim := workers[1]

	// Declaring a worker dead takes three consecutive failures a backoff
	// apart (some 300 ms), and only a slot that finds a pending shard can
	// fail. Twelve shards off one cached golden reference take the
	// survivors half that, so they first get another tenant's campaign,
	// one that cannot finish first: the fleet's shards queue behind it
	// while the victim, idle, starts its own at once and is killed. Once
	// dispatch logs the death, the holds are canceled.
	survivors := []*daemon{workers[0], workers[2]}
	holds := make([]string, len(survivors))
	for i, w := range survivors {
		holds[i] = occupy(t, w, "tok-ops")
	}

	// SIGKILL the victim the moment it is running a shard, so at least
	// its in-flight work must be requeued onto the survivors.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			for _, v := range fleetJobs(t, victim.base) {
				if v.Status == "running" {
					victim.cmd.Process.Kill()
					victim.cmd.Wait()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	outJSON := filepath.Join(t.TempDir(), "merged.json")
	spans := filepath.Join(t.TempDir(), "spans.ndjson")
	args := append([]string{"dispatch",
		"-workers", workers[0].base + "," + workers[1].base + "," + workers[2].base,
		"-token", "tok-e2e",
		"-shards", "12",
		"-max-attempts", "12",
		"-progress=false", "-v",
		"-fig", "none",
		"-out", outJSON,
		"-trace-spans", spans,
		"-golden", filepath.Join("..", "testdata", "golden_4x4_seed3.json"),
	}, goldenArgs...)
	dispatch := exec.Command(cliBin, args...)
	var stdout bytes.Buffer
	stderr := &watchWriter{want: []byte("declared dead"), seen: make(chan struct{})}
	dispatch.Stdout = &stdout
	dispatch.Stderr = stderr
	if err := dispatch.Start(); err != nil {
		t.Fatal(err)
	}
	ended := make(chan error, 1)
	go func() { ended <- dispatch.Wait() }()
	select {
	case <-stderr.seen:
		for i, w := range survivors {
			release(t, w, "tok-ops", holds[i])
		}
		err = <-ended
	case err = <-ended:
	}
	if err != nil {
		t.Fatalf("dispatch: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, stderr)
	}
	<-killed

	// Byte-identity: merged fleet report == unsharded CLI report.
	got, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed report differs from single-machine CLI output (%d vs %d bytes)", len(got), len(want))
	}
	if !bytes.Contains(stdout.Bytes(), []byte("golden check: merged records are bit-identical")) {
		t.Fatalf("golden fixture gate did not pass; stdout:\n%s", &stdout)
	}

	// The kill must have been visible: the summary line reports the
	// requeues and the dead worker.
	sum := regexp.MustCompile(`(\d+) shards, (\d+) requeued, (\d+) retries, (\d+) workers died`).
		FindSubmatch(stdout.Bytes())
	if sum == nil {
		t.Fatalf("no fleet summary line; stdout:\n%s", &stdout)
	}
	requeued, _ := strconv.Atoi(string(sum[2]))
	died, _ := strconv.Atoi(string(sum[4]))
	if requeued < 1 {
		t.Fatalf("worker was SIGKILLed mid-campaign but nothing was requeued\nstdout:\n%s\nstderr:\n%s", &stdout, stderr)
	}
	if died != 1 {
		t.Fatalf("workers died = %d, want exactly the victim\nstdout:\n%s", died, &stdout)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("(died)")) {
		t.Fatalf("per-worker table does not mark the victim dead:\n%s", &stdout)
	}

	// The requeue is also on the span stream: at least one dispatch
	// span ended requeued, and the campaign still completed every
	// shard (so the requeued shard's retry ran on a survivor).
	spanData, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(spanData, []byte(`"outcome":"requeued"`)) {
		t.Fatalf("no dispatch span with outcome=requeued in %s", spans)
	}
	if !bytes.Contains(spanData, []byte(`"outcome":"done"`)) {
		t.Fatalf("no completed dispatch spans in %s", spans)
	}

	// Survivors absorbed the work: their per-worker tallies cover all
	// 12 shards minus whatever the victim finished before dying.
	table := regexp.MustCompile(`worker \d+ \S+: (\d+) shards`).FindAllSubmatch(stdout.Bytes(), -1)
	if len(table) != 3 {
		t.Fatalf("per-worker table incomplete:\n%s", &stdout)
	}
	total := 0
	for _, row := range table {
		n, _ := strconv.Atoi(string(row[1]))
		total += n
	}
	if total != 12 {
		t.Fatalf("per-worker shard tallies sum to %d, want 12:\n%s", total, &stdout)
	}

	// Each survivor ran several shards of the one campaign: all but the
	// first must have taken the golden reference from the daemon's cache.
	var hits float64
	for _, w := range []*daemon{workers[0], workers[2]} {
		hits += scrapeMetric(t, w.base, "campaign_golden_cache_hits_total")
	}
	if hits < 1 {
		t.Fatalf("survivors report %v golden-cache hits after %d shards of one campaign, want >= 1", hits, total)
	}
	fmt.Printf("distributed gate: %d requeued, survivors absorbed the victim's shards, %v golden-cache hits\n", requeued, hits)
}

// TestDistributedRedispatchAfterCoordinatorKill: the coordinator keeps
// no state of its own, so a dispatch SIGKILLed mid-campaign loses
// nothing. One worker runs six shards of the golden campaign one at a
// time; the dispatch is killed once some, but not all, of them are done
// there. Re-running the same dispatch reattaches to the worker's jobs and
// runs the rest: the merged records pass the golden fixture, and the
// worker holds exactly six jobs, all done.
func TestDistributedRedispatchAfterCoordinatorKill(t *testing.T) {
	daemonBin, cliBin := binaries(t)
	w := startDaemon(t, daemonBin, t.TempDir(), "-jobs", "1", "-workers", "1")
	doneJobs := func() (jobs, done int) {
		for _, v := range fleetJobs(t, w.base) {
			jobs++
			if v.Status == "done" {
				done++
			}
		}
		return jobs, done
	}
	args := append([]string{"dispatch",
		"-workers", w.base,
		"-shards", "6",
		"-max-inflight", "1",
		"-progress=false", "-v",
		"-fig", "none",
		"-golden", filepath.Join("..", "testdata", "golden_4x4_seed3.json"),
	}, goldenArgs...)

	// With one shard in flight at a time, a kill that lands after the
	// first shard is done leaves at most one more to finish on the worker.
	first := exec.Command(cliBin, args...)
	var firstOut bytes.Buffer
	first.Stdout, first.Stderr = &firstOut, &firstOut
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	done := 0
	for deadline := time.Now().Add(2 * time.Minute); done == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatalf("no shard done on the worker after 2m; dispatch output:\n%s", &firstOut)
		}
		_, done = doneJobs()
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err == nil {
		t.Fatalf("the dispatch finished before it was killed:\n%s", &firstOut)
	}
	atKill := done
	if atKill >= 6 {
		t.Fatalf("all six shards were done when the dispatch was killed; test premise broken")
	}

	// The worker finishes the job in flight; nothing submits the others.
	var jobs int
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if jobs, done = doneJobs(); jobs == done || time.Now().After(deadline) {
			break
		}
	}
	if jobs != done || jobs >= 6 {
		t.Fatalf("after the kill the worker holds %d jobs, %d done; want fewer than six, all done", jobs, done)
	}

	out, err := exec.Command(cliBin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("re-run dispatch: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("golden check: merged records are bit-identical")) {
		t.Fatalf("the re-run's merged records did not pass the golden fixture:\n%s", out)
	}
	if jobs, done := doneJobs(); jobs != 6 || done != 6 {
		t.Fatalf("after the re-run the worker holds %d jobs, %d done; want six, all done\n%s", jobs, done, out)
	}
	fmt.Printf("coordinator kill: %d of 6 shards done at the kill, %d after it; the re-run ran the rest\n", atKill, jobs)
}

// occupySpec is the paper-scale 8×8 campaign over every fault location
// (32 256 runs) with a 5000-cycle window: about 80 s of a single-worker
// daemon on a two-core host, some hundred times what the fleet takes to
// declare a worker dead.
const occupySpec = `{"mesh_w":8,"mesh_h":8,"vcs":4,"injection_rate":0.05,"seed":3,` +
	`"inject_cycle":300,"post_inject_run":5000,"drain_deadline":10000,` +
	`"epoch":1500,"hop_latency":1,"num_faults":0}`

// occupy submits occupySpec to an authed worker as another tenant and
// returns the job's ID.
func occupy(t *testing.T, w *daemon, token string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs", strings.NewReader(occupySpec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("occupy %s: got %d, want 201; body: %s", w.base, resp.StatusCode, body)
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("occupy %s: %v\n%s", w.base, err, body)
	}
	return v.ID
}

// release cancels an occupying job.
func release(t *testing.T, w *daemon, token, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, w.base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("release %s job %s: got %d; body: %s", w.base, id, resp.StatusCode, body)
	}
}

// watchWriter keeps what is written to it and closes seen once that
// holds want. It is safe for a writer and a reader at once.
type watchWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	want []byte
	seen chan struct{}
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	had := bytes.Contains(w.buf.Bytes(), w.want)
	w.buf.Write(p)
	if !had && bytes.Contains(w.buf.Bytes(), w.want) {
		close(w.seen)
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// scrapeMetric returns an unlabelled sample's value from a worker's
// OpenMetrics endpoint (0 when the family is absent).
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestDispatchRejectsBadToken checks the fleet's auth actually bites
// end to end: a dispatch with the wrong bearer token fails fast with
// the 401 surfaced, and no jobs land on the worker.
func TestDispatchRejectsBadToken(t *testing.T) {
	daemonBin, cliBin := binaries(t)
	w := startDaemon(t, daemonBin, t.TempDir(), "-auth", "ci=tok-e2e")

	args := append([]string{"dispatch",
		"-workers", w.base, "-token", "tok-wrong", "-shards", "12",
		"-progress=false", "-fig", "none",
	}, goldenArgs...)
	out, err := exec.Command(cliBin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("dispatch with a bad token succeeded:\n%s", out)
	}
	if !bytes.Contains(out, []byte("401")) && !bytes.Contains(out, []byte("unknown bearer token")) {
		t.Fatalf("failure does not surface the auth rejection:\n%s", out)
	}
	if jobs := fleetJobs(t, w.base); len(jobs) != 0 {
		t.Fatalf("unauthenticated dispatch still created %d jobs", len(jobs))
	}
}
