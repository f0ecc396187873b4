// Command faultcampaign runs the paper's fault-injection campaign
// (§5.2–5.4) and regenerates the evaluation figures:
//
//	Figure 6 — fault coverage breakdown (TP/FP/TN/FN) for NoCAlert,
//	           NoCAlert Cautious and ForEVeR;
//	Figure 7 — cumulative fault-detection delay distribution;
//	Figure 8 — share of violations per invariance checker;
//	Figure 9 — simultaneously asserted checkers per fault;
//	Obs. 3  — transient vs permanent behaviour of invariance 5;
//	Obs. 5  — the fate of faults with no same-cycle assertion.
//
// Usage:
//
//	faultcampaign -mesh 8x8 -rate 0.05 -inject 32000 -faults 2000
//	faultcampaign -mesh 4x4 -inject 0 -faults 500 -fig 6,7
//
// The paper evaluates its full fault population (11,808 locations at
// its RTL granularity; this model enumerates 32,256 bit-level locations
// for the same 8×8 mesh); pass -faults 0 to do the same (hours of CPU),
// or a sample size for a quicker statistically representative run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the telemetry server
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/fault"
	"nocalert/internal/metrics"
	"nocalert/internal/obs"
	"nocalert/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultcampaign: ")
	if len(os.Args) > 1 && os.Args[1] == "merge" {
		mergeMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "dispatch" {
		dispatchMain(os.Args[2:])
		return
	}
	sf := addSpecFlags(flag.CommandLine)
	var (
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		figFlag  = flag.String("fig", "all", figHelp(mainFigureNames))
		jsonPath = flag.String("json", "", "also export the aggregated results as JSON to this file")
		fullSim  = flag.Bool("fullsim", false, "run every fault on the full-simulation reference path (the whole mesh through window, drain and ForEVeR horizon; no fast path, reconvergence, divergence frontier or fast-forward); results are byte-identical to the default")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		progress = flag.Bool("progress", true, "print campaign progress to stderr")
		telAddr  = flag.String("telemetry", "", "serve live telemetry on this address (OpenMetrics at /metrics, pprof at /debug/pprof/)")
		spanOut  = flag.String("trace-spans", "", "stream campaign/run/phase spans as NDJSON to this file")
		otlpOut  = flag.String("spans-otlp", "", "write the completed spans as an OTLP/JSON dump to this file (implies span retention)")
		spanN    = flag.Int("span-sample", 1, "record every Nth run's spans (campaign-level spans are always recorded)")
		shardStr = flag.String("shard", "", "run only shard i/N of the campaign (0-based, e.g. 0/4) against a resumable checkpoint; requires -checkpoint")
		ckptPath = flag.String("checkpoint", "", "record every run to this shard checkpoint (NDJSON) and print no figures; an existing one is resumed, a finished one is a no-op; without -shard the whole campaign is shard 0/1")
		verifyN  = flag.Int("verify-resumed", 0, "recorded runs to re-execute and compare when resuming a checkpoint (0 = default sample, -1 = none)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (subcommands: merge, dispatch)", flag.Arg(0))
	}

	// SIGINT/SIGTERM cancel the campaign cooperatively: in-flight runs
	// finish, then RunCampaign returns context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := sf.spec()
	if err != nil {
		log.Fatal(err)
	}
	rc := spec.RouterConfig()
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	figs := parseFigures(*figFlag)

	faults := spec.Universe()
	fmt.Printf("fault population: %d single-bit locations (%d sites); injecting %d at cycle(s) %s\n",
		totalBits(params), len(params.EnumerateSites()), len(faults), *sf.inject)

	// Telemetry: one registry feeds the progress line's ETA, the
	// /metrics endpoint and the live faults/sec gauge. It stays nil —
	// zero cost — when neither consumer is active.
	var reg *metrics.Registry
	if *progress || *telAddr != "" {
		reg = metrics.NewRegistry()
	}
	if *telAddr != "" {
		addr, err := serveTelemetry(*telAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: http://%s/metrics (pprof /debug/pprof/)\n", addr)
	}

	// Span tracing is result-invisible (the traced report is
	// byte-identical) and works in shard mode too, so it is wired before
	// the mode split.
	var tracer *obs.Tracer
	var spanFile *os.File
	if *spanOut != "" || *otlpOut != "" {
		topts := obs.Options{SampleEvery: *spanN, Retain: *otlpOut != "", Service: "faultcampaign", Metrics: reg}
		if *spanOut != "" {
			spanFile, err = os.Create(*spanOut)
			if err != nil {
				log.Fatal(err)
			}
			topts.Writer = spanFile
		}
		tracer = obs.New(topts)
	}
	// closeObs finishes the span sinks after the campaign (or shard)
	// completes: flush and close the span stream and render the OTLP
	// dump from the retained spans.
	closeObs := func() {
		if tracer == nil {
			return
		}
		if err := tracer.Close(); err != nil {
			log.Fatalf("trace-spans: %v", err)
		}
		if spanFile != nil {
			if err := spanFile.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("span stream: %d spans (trace %s) written to %s\n", tracer.Spans(), tracer.TraceID(), *spanOut)
		}
		if *otlpOut != "" {
			f, err := os.Create(*otlpOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := tracer.WriteOTLP(f); err != nil {
				log.Fatalf("spans-otlp: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("OTLP span dump written to %s\n", *otlpOut)
		}
	}

	if *shardStr != "" && *ckptPath == "" {
		log.Fatal("-shard requires -checkpoint FILE")
	}
	if *ckptPath != "" {
		if *jsonPath != "" {
			log.Fatal("-checkpoint is incompatible with -json; finalize the shards and use `faultcampaign merge`")
		}
		shard := *shardStr
		if shard == "" {
			shard = "0/1"
		}
		sro := campaign.ShardRunOptions{
			Workers:       *workers,
			FullSim:       *fullSim,
			VerifyResumed: *verifyN,
			Tracer:        tracer,
		}
		if err := runShardMode(ctx, spec, shard, *ckptPath, sro, *progress, reg); err != nil {
			log.Fatal(err)
		}
		closeObs()
		return
	}

	var report func(done, total int)
	if *progress {
		report = progressPrinter(os.Stderr, "campaign", reg)
		report(0, len(faults)) // the 0% line must appear before the first run completes
	}
	start := time.Now()
	// exec is how this invocation executes a campaign, whatever its faults:
	// the main one below, and the two behind the Observation 3 table.
	exec := spec.Options()
	exec.Workers, exec.FullSim, exec.Context = *workers, *fullSim, ctx
	opts := exec
	opts.Faults = faults
	opts.Progress, opts.Metrics, opts.Tracer = report, reg, tracer
	rep, err := campaign.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	closeObs()
	wall := time.Since(start)
	fmt.Printf("campaign: %d runs in %v; %d faults fired, %d caused network-correctness violations, %d fast-path exits, %d reconverged, %d forked (%d prefix cycles skipped, %d synthesized)\n\n",
		len(rep.Results), wall.Round(time.Millisecond), rep.FiredCount(), rep.MaliciousCount(), rep.FastPathHits, rep.ReconvergedHits,
		rep.ForkedRuns, rep.WarmstartCyclesSaved, rep.SynthesizedCycles)

	printFigures(os.Stdout, rep, figs)
	if *jsonPath != "" {
		writeReportJSON(rep, *jsonPath)
	}
	if figs.has("obs3") {
		obs3(os.Stdout, exec)
	}

	// Observation 1: zero false negatives.
	fn := rep.FalseNegatives(campaign.NoCAlert)
	fmt.Printf("Observation 1 — NoCAlert false negatives: %d (ForEVeR: %d)\n",
		fn, rep.FalseNegatives(campaign.ForEVeR))
	if fn != 0 {
		os.Exit(1)
	}
}

// obs3 contrasts transient and permanent faults on the same arbiter
// grant signals: a transient "grant to nobody" is a one-cycle NOP
// (benign), a permanent one starves the port into a protocol deadlock
// (paper Observation 3). exec carries the invocation's execution options
// (workers, -fullsim), so the permanent campaign — the one armed
// campaign the CLI can spell — runs on the reference run path when asked to.
func obs3(w io.Writer, exec campaign.Options) {
	inject := exec.InjectCycle
	rc := exec.Sim.Router
	params := fault.Params{Mesh: rc.Mesh, VCs: rc.VCs, BufDepth: rc.BufDepth}
	var tr, pm []fault.Fault
	for _, s := range params.EnumerateSites() {
		if s.Kind != fault.SA1Gnt {
			continue
		}
		for b := 0; b < s.Width; b++ {
			tr = append(tr, fault.Fault{Site: s, Bit: b, Cycle: inject, Type: fault.Transient})
			pm = append(pm, fault.Fault{Site: s, Bit: b, Cycle: inject, Type: fault.Permanent})
		}
		if len(tr) >= 40 {
			break
		}
	}
	t := stats.NewTable("Observation 3 — invariance 5 under transient vs permanent faults (SA1 grant signals)",
		"Fault type", "Runs", "Detected%", "Malicious%", "Deadlocked%")
	for _, c := range []struct {
		name   string
		faults []fault.Fault
	}{{"transient", tr}, {"permanent", pm}} {
		exec.Faults = c.faults
		rep, err := campaign.Run(exec)
		if err != nil {
			log.Fatal(err)
		}
		var det, mal, dead int
		for _, r := range rep.Results {
			if r.Outcome.Detected() {
				det++
			}
			if r.Malicious {
				mal++
			}
			if r.Unbounded {
				dead++
			}
		}
		n := int64(len(rep.Results))
		t.AddRow(c.name, n, stats.Pct(int64(det), n), stats.Pct(int64(mal), n), stats.Pct(int64(dead), n))
	}
	t.Render(w)
	fmt.Fprintln(w)
}

// serveTelemetry starts the live-profiling HTTP server: /metrics (the
// OpenMetrics/Prometheus exposition standard scrapers consume) plus the
// /debug/pprof/ pages the net/http/pprof import registered on the
// default mux. It returns the bound address ("localhost:0" picks a
// port).
func serveTelemetry(addr string, reg *metrics.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.OpenMetricsContentType)
		reg.WriteOpenMetrics(w)
	})
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			log.Printf("telemetry server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

func totalBits(p fault.Params) int {
	n := 0
	for _, s := range p.EnumerateSites() {
		n += s.Width
	}
	return n
}
