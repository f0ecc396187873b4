// Command faultcampaign runs the paper's fault-injection campaign
// (§5.2–5.4) and regenerates the evaluation figures:
//
//	Figure 6 — fault coverage breakdown (TP/FP/TN/FN) for NoCAlert,
//	           NoCAlert Cautious and ForEVeR;
//	Figure 7 — cumulative fault-detection delay distribution;
//	Figure 8 — share of violations per invariance checker;
//	Figure 9 — simultaneously asserted checkers per fault;
//	Obs. 3  — transient vs permanent behaviour of invariance 5
//	          (printed only when named: -fig obs3; named alone, it
//	          skips the main campaign);
//	Obs. 5  — the fate of faults with no same-cycle assertion.
//
// Usage:
//
//	faultcampaign -mesh 8x8 -rate 0.05 -inject 32000 -faults 2000
//	faultcampaign -mesh 4x4 -inject 0 -faults 500 -fig 6,7
//
// The paper evaluates its full fault population (11,808 locations at
// its RTL granularity; this model enumerates 32,256 bit-level locations
// for the same 8×8 mesh); pass -faults 0 to do the same (5–6 s an
// injection instant on two cores), or a sample size for a quicker run.
// `make paper` runs the population at the paper's three instants into
// testdata/paper/, the files EXPERIMENTS.md quotes.
//
// Every invocation runs one shard of the campaign, 0/1 — the whole of
// it — unless -shard names another, and folds the whole campaign's run
// records into the report. -checkpoint picks where the records are kept,
// and so whether the run can be resumed; a shard of several prints no
// report, and `faultcampaign merge` folds the shards' checkpoints.
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
		shardStr = flag.String("shard", "", "run only shard `i/N` of the campaign (0-based, e.g. 0/4) and print no report; requires -checkpoint, which faultcampaign merge folds with the other shards'")
		ckptPath = flag.String("checkpoint", "", "keep every run's record in this checkpoint (NDJSON), so the run can be resumed: an existing one is resumed, a finished one is not run again; the whole campaign (no -shard) prints its report all the same")
		verifyN  = flag.Int("verify-resumed", 0, "recorded runs to re-execute and compare when resuming a checkpoint (0 = default sample, -1 = none)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (subcommands: merge, dispatch)", flag.Arg(0))
	}
	if *shardStr != "" && *ckptPath == "" {
		log.Fatal("-shard requires -checkpoint FILE")
	}
	idx, n, err := parseShardFlag(*shardStr)
	if err != nil {
		log.Fatal(err)
	}
	if n > 1 && *jsonPath != "" {
		log.Fatal("-json needs the whole campaign; merge the shards' checkpoints with `faultcampaign merge -out`")
	}

	// SIGINT/SIGTERM cancel the campaign cooperatively: in-flight runs
	// finish, then RunShard returns context.Canceled.
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
	// exec is how the Observation 3 table's campaign executes: on the
	// invocation's workers and run path, like the main one.
	exec := spec.Options()
	exec.Workers, exec.FullSim, exec.Context = *workers, *fullSim, ctx
	if figs.obs3Alone() && *jsonPath == "" && *ckptPath == "" {
		obs3(os.Stdout, exec)
		return
	}

	fmt.Printf("fault population: %d single-bit locations (%d sites); injecting %d at cycle(s) %s\n",
		totalBits(params), len(params.EnumerateSites()), len(spec.Universe()), *sf.inject)

	// Telemetry: the registry behind /metrics. It stays nil — zero cost —
	// without -telemetry.
	var reg *metrics.Registry
	if *telAddr != "" {
		reg = metrics.NewRegistry()
		addr, err := serveTelemetry(*telAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: http://%s/metrics (pprof /debug/pprof/)\n", addr)
	}

	// Span tracing is result-invisible: the traced report is
	// byte-identical.
	var tracer *obs.Tracer
	var spanFile *os.File
	if *spanOut != "" || *otlpOut != "" {
		topts := obs.Options{SampleEvery: *spanN, Retain: *otlpOut != "", Service: "faultcampaign"}
		if *spanOut != "" {
			spanFile, err = os.Create(*spanOut)
			if err != nil {
				log.Fatal(err)
			}
			topts.Writer = spanFile
		}
		tracer = obs.New(topts)
	}

	recs, err := runShard(spec, idx, n, *ckptPath, campaign.ShardRunOptions{
		Workers:       *workers,
		FullSim:       *fullSim,
		VerifyResumed: *verifyN,
		Metrics:       reg,
		Context:       ctx,
		Tracer:        tracer,
	}, *progress)
	if err != nil {
		log.Fatal(err)
	}
	// Finish the span sinks: flush and close the span stream and render
	// the OTLP dump from the retained spans.
	if tracer != nil {
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
	if n > 1 {
		// A shard is part of a campaign: merge folds its checkpoint with
		// the other shards' into the report.
		return
	}
	rep, err := campaign.ReportFromRecords(spec, recs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	writeReport("campaign", spec, rep, figs, *jsonPath, "")
	if figs.has("obs3") {
		obs3(os.Stdout, exec)
	}
}

// obs3 contrasts transient and permanent faults on the same arbiter
// grant signals: a transient "grant to nobody" is a one-cycle NOP
// (benign), a permanent one starves the port into a protocol deadlock
// (paper Observation 3). Both kinds run as one campaign, and the table
// splits its records by fault type. exec carries the invocation's
// execution options (workers, -fullsim), so the permanent faults — the
// one armed campaign the CLI can spell — run on the reference run path
// when asked to.
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
	exec.Faults = append(tr, pm...)
	rep, err := campaign.Run(exec)
	if err != nil {
		log.Fatal(err)
	}
	t := stats.NewTable("Observation 3 — invariance 5 under transient vs permanent faults (SA1 grant signals)",
		"Fault type", "Runs", "Detected%", "Malicious%", "Deadlocked%")
	for _, typ := range []fault.Type{fault.Transient, fault.Permanent} {
		var n, det, mal, dead int64
		for _, r := range rep.Results {
			if r.FaultType != typ.String() {
				continue
			}
			n++
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
		t.AddRow(typ.String(), n, stats.Pct(det, n), stats.Pct(mal, n), stats.Pct(dead, n))
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
