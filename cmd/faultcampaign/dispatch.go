package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nocalert/internal/coordinator"
	"nocalert/internal/obs"
)

// dispatchMain is the `faultcampaign dispatch` subcommand: run one
// campaign across a fleet of nocalertd workers and print the same
// figures (and pass the same golden and Observation 1 gates) a
// single-machine run would — the merged report is byte-identical, or the
// coordinator's gate refuses a worker's shard and requeues it.
func dispatchMain(args []string) {
	fs := flag.NewFlagSet("dispatch", flag.ExitOnError)
	sf := addSpecFlags(fs)
	var (
		workersFlag = fs.String("workers", "", "comma-separated nocalertd base URLs (e.g. http://a:8377,http://b:8377); required")
		token       = fs.String("token", "", "bearer token presented to every worker (when the fleet requires auth)")
		shards      = fs.Int("shards", 0, "shards to plan across the fleet (0 = one per worker)")
		inflight    = fs.Int("max-inflight", 2, "concurrently dispatched shards per worker")
		lease       = fs.Duration("lease", 30*time.Second, "requeue a shard after this long without a progress event from its worker")
		attempts    = fs.Int("max-attempts", 6, "dispatch attempts per shard before the run fails")

		figs       = fs.String("fig", "all", figHelp(reportFigureNames))
		out        = fs.String("out", "", "write the merged aggregated report as JSON to this file")
		goldenPath = fs.String("golden", "", "compare the merged records against this committed fixture; exit non-zero on drift")
		progress   = fs.Bool("progress", true, "print fleet progress to stderr")
		verbose    = fs.Bool("v", false, "log every dispatch decision to stderr")
		spanOut    = fs.String("trace-spans", "", "stream coordinator/dispatch spans as NDJSON to this file")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: faultcampaign dispatch -workers URL,URL,... [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	fleet := strings.Split(*workersFlag, ",")
	if *workersFlag == "" || len(fleet) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := sf.spec()
	if err != nil {
		log.Fatal(err)
	}

	var tracer *obs.Tracer
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			log.Fatalf("dispatch: trace-spans: %v", err)
		}
		defer f.Close()
		tracer = obs.New(obs.Options{Writer: f, Service: "faultcampaign-dispatch"})
		defer tracer.Close()
	}

	cfg := coordinator.Config{
		Workers:      fleet,
		Token:        *token,
		Shards:       *shards,
		MaxInFlight:  *inflight,
		LeaseTimeout: *lease,
		MaxAttempts:  *attempts,
		Tracer:       tracer,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	if *progress {
		last := time.Now()
		cfg.Progress = func(p coordinator.ProgressUpdate) {
			// Throttle to ~5 lines/sec; terminal shard completions
			// always print.
			if time.Since(last) < 200*time.Millisecond && p.ShardsDone < p.Shards {
				return
			}
			last = time.Now()
			eta := "--"
			if p.ETAOK {
				eta = p.ETA.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\rfleet: %d/%d runs, %d/%d shards, %.1f faults/sec, ETA %s   ",
				p.Done, p.Total, p.ShardsDone, p.Shards, p.Rate, eta)
		}
	}

	fmt.Printf("dispatching over %d workers\n", len(fleet))

	start := time.Now()
	res, err := coordinator.Run(ctx, spec, cfg)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		log.Fatalf("dispatch: %v", err)
	}
	elapsed := time.Since(start)

	st := res.Stats
	fmt.Printf("fleet campaign: %d runs in %v (%.1f faults/sec aggregate); %d shards, %d requeued, %d retries, %d workers died\n",
		len(res.Merged.Records), elapsed.Round(time.Millisecond),
		float64(len(res.Merged.Records))/elapsed.Seconds(),
		st.Shards, st.Requeued, st.Retries, st.WorkersDead)
	for i, w := range st.PerWorker {
		note := ""
		if w.Dead {
			note = " (died)"
		}
		fmt.Printf("  worker %d %s: %d shards%s\n", i, w.URL, w.ShardsDone, note)
	}

	writeReport("dispatch", res.Merged.Spec, res.Report, parseFigures(*figs), *out, *goldenPath)
}
