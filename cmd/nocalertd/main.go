// Command nocalertd is the long-running campaign service: submit
// fault-injection campaigns (campaign.Spec JSON) over HTTP, watch
// their progress as an NDJSON/SSE event stream, and fetch final
// reports that are byte-identical to the equivalent unsharded
// `faultcampaign -json` output.
//
// Every job is shard i of n of its spec (0/1 unless the submit names
// one) for the tenant that submitted it, and an identical submit by that
// tenant returns the same job; another tenant's is a job of its own,
// which resumes the shard's shared checkpoint. Every job is durable: its manifest is in the state directory before the 201
// response is written, and its runs land in a resumable shard checkpoint
// named by spec hash and shard, so a daemon killed at any instant —
// SIGKILL included — restarts with its whole job table and resumes every
// unfinished campaign from its checkpoint, re-verifying a sample of the
// recorded runs instead of re-executing them. A done job's report is
// folded from its checkpoint on request.
//
// Usage:
//
//	nocalertd -addr localhost:8377 -dir /var/lib/nocalertd
//
// Endpoints:
//
//	POST   /v1/jobs             submit a spec, ?shard=i&shards=n (200 and
//	                            the existing job when it is resubmitted,
//	                            429 when the queue is full)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events NDJSON progress stream (SSE with
//	                            Accept: text/event-stream)
//	GET    /v1/jobs/{id}/report final aggregated report of a 0/1 job
//	GET    /v1/jobs/{id}/checkpoint finalized shard checkpoint
//	DELETE /v1/jobs/{id}        cancel (the owning tenant's only, with
//	                            -auth)
//	GET    /metrics             OpenMetrics/Prometheus exposition
//	GET    /healthz /debug/pprof/
//
// Observability: every job status change — queued, running, done,
// failed, canceled, back to queued on a drain — is made in one place,
// which writes the job's manifest, view, stream event, the queued and
// running gauges, a counter and one log/slog record (text by default,
// `-log-json` for machine-readable records) carrying the job ID.
// `-trace-spans` streams the job → shard → run span hierarchy as
// NDJSON, each job's shard checkpoint under `-dir` is its per-run
// record, and /metrics serves the whole registry to standard scrapers.
//
// SIGTERM/SIGINT drain gracefully: the listener closes, running
// campaigns stop after their in-flight faults (every completed run is
// already on disk), queued jobs stay queued, and the next start
// resumes all of it. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8377", "HTTP listen address (host:0 picks a free port)")
		dir       = flag.String("dir", "nocalertd-state", "state directory: job manifests and shard checkpoints")
		queue     = flag.Int("queue", 16, "submission queue bound; beyond it POST /v1/jobs returns 429")
		jobs      = flag.Int("jobs", 1, "jobs running concurrently (each job is internally parallel)")
		workers   = flag.Int("workers", 0, "per-campaign worker pool size (0 = GOMAXPROCS)")
		verifyN   = flag.Int("verify-resumed", 0, "recorded runs to re-execute and compare when resuming a checkpoint (0 = default sample, -1 = none)")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight runs before giving up")
		logJSON   = flag.Bool("log-json", false, "emit log records as JSON instead of text")
		spanFile  = flag.String("trace-spans", "", "stream job/shard/run/phase spans as NDJSON to this file")
		spanN     = flag.Int("span-sample", 1, "sample every Nth run span (campaign-level spans always recorded)")
		auth      = flag.String("auth", "", "comma-separated tenant=token pairs; when set, POST/DELETE require a matching bearer token (read endpoints stay open)")
		quota     = flag.Int("tenant-quota", 0, "max active (queued+running) jobs per tenant; 0 = unlimited")
		rateLim   = flag.Float64("rate-limit", 0, "mutating requests/second per tenant (token bucket); 0 = off")
		rateBurst = flag.Int("rate-burst", 0, "token-bucket burst headroom (default 5 when -rate-limit is set)")
	)
	flag.Parse()

	authTokens, err := parseAuthFlag(*auth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocalertd:", err)
		os.Exit(1)
	}

	var h slog.Handler
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(h).With("service", "nocalertd")
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	reg := metrics.NewRegistry()
	var tracer *obs.Tracer
	if *spanFile != "" {
		f, err := os.Create(*spanFile)
		if err != nil {
			fatal("trace-spans open", err)
		}
		defer f.Close()
		tracer = obs.New(obs.Options{Writer: f, SampleEvery: *spanN, Service: "nocalertd"})
		defer tracer.Close()
		logger = logger.With("trace_id", tracer.TraceID())
	}

	srv, err := server.New(server.Config{
		Dir:             *dir,
		QueueSize:       *queue,
		Concurrency:     *jobs,
		CampaignWorkers: *workers,
		VerifyResumed:   *verifyN,
		Registry:        reg,
		Logger:          logger,
		Tracer:          tracer,
		AuthTokens:      authTokens,
		TenantQuota:     *quota,
		RateLimit:       *rateLim,
		RateBurst:       *rateBurst,
	})
	if err != nil {
		fatal("startup", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// The e2e harness parses this line to find the bound port.
	fmt.Printf("nocalertd: listening on %s (state dir %s)\n", ln.Addr(), *dir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("draining (in-flight runs finish, checkpoints stay resumable; again to force exit)", "signal", sig.String())
	case err := <-serveErr:
		fatal("serve", err)
	}

	go func() {
		<-sigs
		logger.Warn("second signal: exiting now (checkpoints are append-only and survive this too)")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	if err := srv.Stop(ctx); err != nil {
		logger.Error("drain", "error", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "error", err)
	}
	logger.Info("drained; state is resumable on next start")
}

// parseAuthFlag parses "-auth tenant=token,tenant2=token2" into the
// token → tenant table server.Config wants.
func parseAuthFlag(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	tokens := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		tenant, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("invalid -auth entry %q (want tenant=token)", pair)
		}
		if _, dup := tokens[token]; dup {
			return nil, fmt.Errorf("-auth token for %q reused; tokens must be unique", tenant)
		}
		tokens[token] = tenant
	}
	return tokens, nil
}
