package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// authedServer builds a queued (worker-less) server with two tenants
// configured and wraps it in a test listener.
func authedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.AuthTokens == nil {
		cfg.AuthTokens = map[string]string{
			"tok-alpha": "alpha",
			"tok-beta":  "beta",
		}
	}
	s := queuedServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// authedPost submits testSpec(faults) with the token; an identical spec
// is the same job, so a test after two jobs submits two fault counts.
func authedPost(t *testing.T, url, token string, faults int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", specBody(t, testSpec(faults)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAuthRequired checks the 401 paths on the mutating endpoints:
// no token, malformed header, unknown token — and that read-only
// endpoints stay open without credentials.
func TestAuthRequired(t *testing.T) {
	s, ts := authedServer(t, Config{QueueSize: 4})

	cases := []struct {
		name  string
		token string
	}{
		{"missing token", ""},
		{"unknown token", "tok-wrong"},
		{"empty bearer", " "},
	}
	for _, c := range cases {
		resp := authedPost(t, ts.URL, c.token, 24)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", c.name, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); got == "" {
			t.Errorf("%s: missing WWW-Authenticate challenge", c.name)
		}
		resp.Body.Close()
	}
	if n := s.reg.Counter(MetricAuthFailures).Value(); n != int64(len(cases)) {
		t.Errorf("%s = %d, want %d", MetricAuthFailures, n, len(cases))
	}

	// A valid token submits fine and the job records its tenant.
	resp := authedPost(t, ts.URL, "tok-alpha", 24)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid token: status %d, want 201", resp.StatusCode)
	}
	v := decodeView(t, resp.Body)
	resp.Body.Close()
	if v.Tenant != "alpha" {
		t.Fatalf("job tenant %q, want alpha", v.Tenant)
	}

	// DELETE requires auth too…
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if del.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated cancel: status %d, want 401", del.StatusCode)
	}
	del.Body.Close()

	// …while reads stay open.
	st, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated status read: %d, want 200", st.StatusCode)
	}
	st.Body.Close()
}

// TestRateLimit429 drains one tenant's token bucket on a frozen clock
// and requires 429 + a sane Retry-After, then verifies the bucket
// refills when the clock advances — and that the other tenant's
// bucket is untouched throughout.
func TestRateLimit429(t *testing.T) {
	s, ts := authedServer(t, Config{QueueSize: 32, RateLimit: 2, RateBurst: 3})

	// Replace the limiter's clock before any traffic.
	now := time.Unix(1000, 0)
	s.limiter.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		resp := authedPost(t, ts.URL, "tok-alpha", 24+i)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("burst request %d: status %d, want 201", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := authedPost(t, ts.URL, "tok-alpha", 27)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", ra)
	}
	if n := s.reg.Counter(MetricRateLimited).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricRateLimited, n)
	}

	// The other tenant still has its full burst.
	respB := authedPost(t, ts.URL, "tok-beta", 28)
	if respB.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant caught in alpha's limit: status %d", respB.StatusCode)
	}
	respB.Body.Close()

	// At 2 tokens/sec, one second buys two more requests.
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		resp := authedPost(t, ts.URL, "tok-alpha", 29+i)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("post-refill request %d: status %d, want 201", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp = authedPost(t, ts.URL, "tok-alpha", 31)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("refilled exactly 2 tokens, third request: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantQuota429 caps a tenant at one active job and checks the
// quota 429 (with Retry-After) clears once the job goes terminal.
func TestTenantQuota429(t *testing.T) {
	s, ts := authedServer(t, Config{QueueSize: 8, TenantQuota: 1})

	resp := authedPost(t, ts.URL, "tok-alpha", 24)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job: status %d", resp.StatusCode)
	}
	v := decodeView(t, resp.Body)
	resp.Body.Close()

	resp = authedPost(t, ts.URL, "tok-alpha", 25)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("at quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	resp.Body.Close()
	if n := s.reg.Counter(MetricQuotaDenied).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricQuotaDenied, n)
	}

	// Beta has its own quota.
	respB := authedPost(t, ts.URL, "tok-beta", 26)
	if respB.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant blocked by alpha's quota: status %d", respB.StatusCode)
	}
	respB.Body.Close()

	// Cancel alpha's job; the quota slot frees up.
	if err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	resp = authedPost(t, ts.URL, "tok-alpha", 25)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("after cancel: status %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFairQueueRoundRobin submits a burst from one tenant and a single
// job from another, simultaneously-ish, and requires the dequeue order
// to interleave tenants instead of serving the bulk submitter first.
func TestFairQueueRoundRobin(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 8})

	faults := 24
	submit := func(tenant string) *Job {
		t.Helper()
		faults++ // one spec a job: an identical one is the same job
		j, _, err := s.SubmitJob(testSpec(faults), SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a1, a2, a3 := submit("alpha"), submit("alpha"), submit("alpha")
	b1 := submit("beta")

	got := []string{}
	for j := s.queue.pop(); j != nil; j = s.queue.pop() {
		got = append(got, j.ID)
	}
	// Round-robin: alpha, beta, alpha, alpha — beta's single job does
	// not wait behind alpha's whole burst.
	want := []string{a1.ID, b1.ID, a2.ID, a3.ID}
	if len(got) != len(want) {
		t.Fatalf("popped %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want [a1 b1 a2 a3] = %v", got, want)
		}
	}

	// Single-tenant traffic stays strictly FIFO (the pre-multi-tenant
	// behaviour).
	c1, c2 := submit(""), submit("")
	if s.queue.pop().ID != c1.ID || s.queue.pop().ID != c2.ID {
		t.Fatal("single-tenant FIFO order violated")
	}
}

// TestShardSubmitIdempotent re-submits the same shard and expects the
// same job back instead of a duplicate.
func TestShardSubmitIdempotent(t *testing.T) {
	s := queuedServer(t, Config{QueueSize: 8})

	j1, existing, err := s.SubmitJob(testSpec(24), SubmitOptions{Shard: 1, Shards: 4})
	if err != nil || existing {
		t.Fatalf("first submit: existing=%v err=%v", existing, err)
	}
	j2, existing, err := s.SubmitJob(testSpec(24), SubmitOptions{Shard: 1, Shards: 4})
	if err != nil || !existing || j2.ID != j1.ID {
		t.Fatalf("resubmit: job %s existing=%v err=%v, want dedupe onto %s", j2.ID, existing, err, j1.ID)
	}
	// A different shard of the same campaign is its own job.
	j3, existing, err := s.SubmitJob(testSpec(24), SubmitOptions{Shard: 2, Shards: 4})
	if err != nil || existing || j3.ID == j1.ID {
		t.Fatalf("different shard: job %s existing=%v err=%v", j3.ID, existing, err)
	}
	// Shard jobs report their coordinates and sliced totals.
	v := j1.view()
	if v.Shard != 1 || v.Shards != 4 || v.Total != 6 {
		t.Fatalf("shard view %+v, want shard 1/4 of 24 faults (total 6)", v)
	}
}

// TestTenantsShareNoJob: a job's identity includes its tenant. Tenant
// beta's submit of alpha's spec and shard is a job of its own, charged to
// beta's quota; beta cannot cancel alpha's job (403) while alpha can; and
// the two jobs share the shard's checkpoint, so the one that runs second
// resumes every run the first recorded.
func TestTenantsShareNoJob(t *testing.T) {
	s, ts := authedServer(t, Config{QueueSize: 8, TenantQuota: 1, CampaignWorkers: 1})
	defer s.Stop(context.Background())
	var views [2]View
	for i, tok := range []string{"tok-alpha", "tok-beta"} {
		resp := authedPost(t, ts.URL, tok, 24)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: status %d, want 201 for a job of its own", tok, resp.StatusCode)
		}
		views[i] = decodeView(t, resp.Body)
		resp.Body.Close()
	}
	alpha, beta := views[0], views[1]
	if alpha.ID == beta.ID || beta.Tenant != "beta" {
		t.Fatalf("beta's submit of alpha's spec answered job %s of tenant %q, alpha's is %s", beta.ID, beta.Tenant, alpha.ID)
	}
	// Beta's job counts against beta's quota.
	resp := authedPost(t, ts.URL, "tok-beta", 25)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("beta's second job: status %d, want 429 at quota 1", resp.StatusCode)
	}
	resp.Body.Close()

	cancel := func(tok, id string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := cancel("tok-beta", alpha.ID); code != http.StatusForbidden {
		t.Fatalf("beta canceling alpha's job: status %d, want 403", code)
	}
	if j, _ := s.Job(alpha.ID); j.view().Status != StatusQueued {
		t.Fatalf("alpha's job is %s after beta's refused cancel", j.view().Status)
	}

	s.startWorkers()
	resumed := 0
	for _, v := range views {
		final := waitJob(t, s, v.ID, 2*time.Minute)
		if final.Status != StatusDone {
			t.Fatalf("job %s ended %s (%s)", v.ID, final.Status, final.Error)
		}
		resumed += final.Resumed
	}
	if resumed != 24 {
		t.Errorf("the two tenants' jobs resumed %d runs between them, want the second to resume all 24", resumed)
	}
	if !bytes.Equal(reportT(t, s, alpha.ID), reportT(t, s, beta.ID)) {
		t.Error("the two tenants' reports of one spec differ")
	}
	if code := cancel("tok-alpha", alpha.ID); code != http.StatusConflict {
		t.Errorf("alpha canceling its own done job: status %d, want 409", code)
	}
}
