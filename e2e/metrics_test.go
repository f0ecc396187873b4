//go:build e2e

package e2e

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"testing"
	"time"
)

// TestDaemonMetricsScrape runs two shards of one small campaign on a fresh
// daemon, one after the other, scrapes its /metrics and lints the
// exposition with omlint, the in-repo OpenMetrics validator. The first
// shard builds the golden reference (one miss), the second takes the
// finished artefact from the daemon's cache (one hit); the cache keeps
// finished artefacts only, so there is no waits family.
func TestDaemonMetricsScrape(t *testing.T) {
	daemonBin, _ := binaries(t)
	d := startDaemon(t, daemonBin, t.TempDir())
	const spec = `{"mesh_w":4,"mesh_h":4,"vcs":4,"injection_rate":0.12,"seed":3,` +
		`"inject_cycle":300,"post_inject_run":400,"drain_deadline":5000,"epoch":400,"num_faults":16}`
	for shard := 0; shard < 2; shard++ {
		j := d.submit(spec, fmt.Sprintf("?shard=%d&shards=2", shard))
		d.waitDone(j.ID, 2*time.Minute)
	}

	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lint := exec.Command(omlint(t))
	lint.Stdin = bytes.NewReader(scrape)
	if out, err := lint.CombinedOutput(); err != nil {
		t.Fatalf("omlint refused the scrape: %v\n%s\n%s", err, out, scrape)
	}

	if !bytes.HasSuffix(scrape, []byte("\n# EOF\n")) {
		t.Errorf("the scrape does not end with # EOF")
	}
	for _, want := range []string{
		`campaign_golden_cache_hits_total 1`,
		`campaign_golden_cache_misses_total 1`,
		`campaign_golden_cache_bytes \S+`,
		// One observation per run, the second shard's all zero: its
		// groups were in the cache.
		`campaign_golden_group_wait_seconds_count 16`,
	} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).Match(scrape) {
			t.Errorf("the scrape has no line %q", want)
		}
	}
	if regexp.MustCompile(`(?m)^campaign_golden_cache_waits_total`).Match(scrape) {
		t.Errorf("the daemon still exports campaign_golden_cache_waits_total")
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", scrape)
	}
}
