package server

import (
	"context"
	"crypto/subtle"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Multi-tenant hardening for the job API's mutating endpoints (POST
// /v1/jobs, DELETE /v1/jobs/{id}):
//
//   - bearer-token auth: every configured token names a tenant; a
//     missing or unknown token is a 401. Read-only endpoints (status,
//     events, reports, metrics) stay open — they are the monitoring
//     surface.
//   - token-bucket rate limiting per tenant: RateLimit mutating
//     requests/second with RateBurst of headroom; an exhausted bucket
//     is a 429 with a Retry-After telling the client exactly when a
//     token will be available.
//   - per-tenant quotas on active (queued + running) jobs, enforced at
//     submit: a tenant at its quota gets a 429 and retries after its
//     own jobs finish, instead of filling the shared queue.
//
// With no tokens configured every request is the anonymous "" tenant,
// which keeps single-user/local deployments working untouched (and
// still rate-limitable).

// Metric names for the hardening layer.
const (
	MetricAuthFailures = "nocalertd_auth_failures_total"
	MetricRateLimited  = "nocalertd_rate_limited_total"
	MetricQuotaDenied  = "nocalertd_quota_denied_total"
)

// ErrQuotaExceeded is returned (and mapped to 429) when a tenant is at
// its active-job quota.
var ErrQuotaExceeded = fmt.Errorf("server: tenant is at its active-job quota")

// tenantKey is the context key the auth middleware stores the resolved
// tenant under.
type tenantKey struct{}

// tenantFrom returns the tenant the auth middleware resolved for the
// request ("" when auth is off or the middleware did not run).
func tenantFrom(r *http.Request) string {
	t, _ := r.Context().Value(tenantKey{}).(string)
	return t
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// lookupTenant resolves a presented token against the configured table
// in constant time per entry, so timing does not leak how much of a
// token matched.
func (s *Server) lookupTenant(token string) (string, bool) {
	for tok, tenant := range s.cfg.AuthTokens {
		if subtle.ConstantTimeCompare([]byte(tok), []byte(token)) == 1 {
			return tenant, true
		}
	}
	return "", false
}

// requireAuth wraps a mutating handler with the auth → rate-limit
// chain. The quota check lives in SubmitJob (it counts the tenant's jobs
// under the job table lock), not here.
func (s *Server) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := ""
		if len(s.cfg.AuthTokens) > 0 {
			token, ok := bearerToken(r)
			if !ok {
				s.mAuthFail.Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="nocalertd"`)
				httpError(w, http.StatusUnauthorized, "missing bearer token")
				return
			}
			tenant, ok = s.lookupTenant(token)
			if !ok {
				s.mAuthFail.Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="nocalertd", error="invalid_token"`)
				httpError(w, http.StatusUnauthorized, "unknown bearer token")
				return
			}
		}
		if s.limiter != nil {
			if retryAfter, ok := s.limiter.allow(tenant); !ok {
				s.mRateLimited.Inc()
				w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
				httpError(w, http.StatusTooManyRequests, "rate limit exceeded for tenant %q; retry after %s", tenant, retryAfter.Round(time.Millisecond))
				return
			}
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant)))
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header does not do fractions).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// rateLimiter is a per-tenant token bucket: rate tokens/second refill
// up to burst. Buckets are created full on first use.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     now,
	}
}

// allow takes one token from tenant's bucket. When the bucket is
// empty it reports ok=false and how long until a token accrues.
func (l *rateLimiter) allow(tenant string) (retryAfter time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.now()
	b, found := l.buckets[tenant]
	if !found {
		b = &bucket{tokens: l.burst, last: t}
		l.buckets[tenant] = b
	}
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
}
