//go:build e2e

package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The campaign under test: the golden 4×4 workload with a doubled
// fault sample, so a single-worker daemon is mid-campaign long enough
// to be killed at a meaningful point.
const (
	specJSON = `{"mesh_w":4,"mesh_h":4,"vcs":4,"injection_rate":0.12,"seed":3,` +
		`"inject_cycle":300,"post_inject_run":400,"drain_deadline":5000,` +
		`"epoch":400,"hop_latency":1,"num_faults":192}`
	specFaults = 192
)

// cliArgs is the faultcampaign invocation equivalent to specJSON.
var cliArgs = []string{
	"-mesh", "4x4", "-vcs", "4", "-rate", "0.12", "-seed", "3",
	"-inject", "300", "-post", "400", "-drain", "5000", "-epoch", "400",
	"-faults", "192",
}

var (
	buildOnce  sync.Once
	buildErr   error
	daemonBin  string
	climateBin string // faultcampaign binary (CLI cross-check)
	lintBin    string // omlint binary (OpenMetrics validator)
)

// binaries builds nocalertd, faultcampaign and omlint once per test
// process and returns the daemon's and the CLI's paths (omlint returns
// the linter's).
func binaries(t *testing.T) (daemon, cli string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "nocalert-e2e-bin")
		if err != nil {
			buildErr = err
			return
		}
		daemonBin = filepath.Join(dir, "nocalertd")
		climateBin = filepath.Join(dir, "faultcampaign")
		lintBin = filepath.Join(dir, "omlint")
		for bin, pkg := range map[string]string{
			daemonBin:  "./cmd/nocalertd",
			climateBin: "./cmd/faultcampaign",
			lintBin:    "./cmd/omlint",
		} {
			cmd := exec.Command("go", "build", "-o", bin, pkg)
			cmd.Dir = ".." // repo root
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return daemonBin, climateBin
}

// omlint returns the omlint binary binaries built.
func omlint(t *testing.T) string {
	t.Helper()
	binaries(t)
	return lintBin
}

// daemon is one running nocalertd process.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string // http://host:port
	logs *bytes.Buffer
}

// startDaemon launches nocalertd on a fresh port against dir and waits
// for its listen line.
func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, extra...)
	cmd := exec.Command(bin, args...)
	logs := new(bytes.Buffer)
	cmd.Stderr = logs
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stdout line is "nocalertd: listening on ADDR (state dir D)".
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logs, line)
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr, _, _ = strings.Cut(rest, " (")
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon never printed its listen line; output:\n%s", logs)
	}
	go io.Copy(logs, stdout) // keep draining so the daemon never blocks on stdout
	d := &daemon{t: t, cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

// kill SIGKILLs the daemon — no drain, no goodbye.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatalf("kill: %v", err)
	}
	d.cmd.Wait()
}

// view mirrors the fields of server.View the suite asserts on.
type view struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Resumed  int    `json:"resumed"`
	Executed int    `json:"executed"`
	Verified int    `json:"verified"`
	Error    string `json:"error"`
}

// submit posts spec as a job; query, when not empty, names its shard
// ("?shard=i&shards=n").
func (d *daemon) submit(spec, query string) view {
	d.t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		d.t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		d.t.Fatalf("submit: got %d, want 201; body: %s", resp.StatusCode, body)
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		d.t.Fatalf("submit response: %v\n%s", err, body)
	}
	return v
}

func (d *daemon) status(id string) view {
	d.t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		d.t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("status: got %d; body: %s", resp.StatusCode, body)
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		d.t.Fatalf("status response: %v\n%s", err, body)
	}
	return v
}

// waitDone polls until the job is terminal, failing unless it ends done.
func (d *daemon) waitDone(id string, timeout time.Duration) view {
	d.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := d.status(id)
		switch v.Status {
		case "done":
			return v
		case "failed", "canceled":
			d.t.Fatalf("job %s ended %s (%s); daemon log:\n%s", id, v.Status, v.Error, d.logs)
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("job %s still %s (%d/%d) after %v; daemon log:\n%s",
				id, v.Status, v.Done, v.Total, timeout, d.logs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) report(id string) []byte {
	d.t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id + "/report")
	if err != nil {
		d.t.Fatalf("report: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("report: got %d; body: %s", resp.StatusCode, body)
	}
	return body
}

// TestKillRestartByteIdenticalReport is the CI durability gate: a
// daemon SIGKILLed mid-campaign and restarted on the same state
// directory must finish the job by resuming its checkpoint, and the
// final report must be byte-identical to both an uninterrupted
// daemon's and the unsharded faultcampaign CLI's output.
func TestKillRestartByteIdenticalReport(t *testing.T) {
	daemonBin, cliBin := binaries(t)

	// Reference 1: the unsharded CLI, the format's source of truth.
	cliJSON := filepath.Join(t.TempDir(), "cli.json")
	cli := exec.Command(cliBin, append(append([]string{}, cliArgs...),
		"-progress=false", "-fig", "6", "-json", cliJSON)...)
	if out, err := cli.CombinedOutput(); err != nil {
		t.Fatalf("faultcampaign: %v\n%s", err, out)
	}
	want, err := os.ReadFile(cliJSON)
	if err != nil {
		t.Fatal(err)
	}

	// Reference 2: an uninterrupted daemon run.
	calm := startDaemon(t, daemonBin, t.TempDir())
	calmJob := calm.submit(specJSON, "")
	calm.waitDone(calmJob.ID, 5*time.Minute)
	if got := calm.report(calmJob.ID); !bytes.Equal(got, want) {
		t.Fatalf("uninterrupted daemon report differs from CLI output (%d vs %d bytes)", len(got), len(want))
	}

	// The gate: submit, SIGKILL mid-campaign, restart, resume.
	stateDir := t.TempDir()
	victim := startDaemon(t, daemonBin, stateDir, "-workers", "1")
	job := victim.submit(specJSON, "")
	killDeadline := time.Now().Add(5 * time.Minute)
	for {
		v := victim.status(job.ID)
		if v.Done >= 3 && v.Status == "running" {
			if v.Done > specFaults-20 {
				t.Fatalf("campaign nearly finished (%d/%d) before the kill; not a meaningful interruption", v.Done, v.Total)
			}
			break
		}
		if v.Status == "done" || time.Now().After(killDeadline) {
			t.Fatalf("no kill window: job reached %s %d/%d", v.Status, v.Done, v.Total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()

	revived := startDaemon(t, daemonBin, stateDir, "-workers", "1")
	rv := revived.status(job.ID) // the job table must survive the crash
	if rv.Status != "queued" && rv.Status != "running" && rv.Status != "done" {
		t.Fatalf("after restart job %s is %q, want it recovered and schedulable", job.ID, rv.Status)
	}
	final := revived.waitDone(job.ID, 5*time.Minute)
	if final.Resumed == 0 {
		t.Fatalf("restarted daemon executed everything from scratch (resumed=0); checkpoint resume did not happen")
	}
	if final.Resumed+final.Executed != final.Total {
		t.Errorf("resumed %d + executed %d != total %d", final.Resumed, final.Executed, final.Total)
	}
	if final.Verified == 0 {
		t.Errorf("no resumed runs were re-verified (verified=0)")
	}
	t.Logf("resumed %d of %d runs, executed %d, verified %d",
		final.Resumed, final.Total, final.Executed, final.Verified)

	if got := revived.report(job.ID); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted reference (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDrainKeepsJobResumable covers the graceful half: SIGTERM during
// a campaign leaves the job queued on disk and the next daemon
// finishes it.
func TestDrainKeepsJobResumable(t *testing.T) {
	daemonBin, _ := binaries(t)
	stateDir := t.TempDir()
	d := startDaemon(t, daemonBin, stateDir, "-workers", "1")
	job := d.submit(specJSON, "")
	deadline := time.Now().Add(5 * time.Minute)
	for d.status(job.ID).Done < 3 {
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not drain cleanly: %v\n%s", err, d.logs)
	}

	revived := startDaemon(t, daemonBin, stateDir)
	final := revived.waitDone(job.ID, 5*time.Minute)
	if final.Resumed == 0 {
		t.Errorf("drained job was not resumed from its checkpoint")
	}
}
