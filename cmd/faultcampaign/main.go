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
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the telemetry server
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nocalert"
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
	var (
		meshSpec = flag.String("mesh", "8x8", "mesh dimensions WxH")
		vcs      = flag.Int("vcs", 4, "virtual channels per port")
		rate     = flag.Float64("rate", 0.05, "injection rate (flits/node/cycle)")
		inject   = flag.String("inject", "0", "fault-injection cycle, or a comma list (e.g. 0,16000,32000) spread round-robin over the sample (paper: 0 and 32000)")
		nFaults  = flag.Int("faults", 1000, "fault sample size (0 = all locations)")
		seed     = flag.Uint64("seed", 1, "random seed")
		epoch    = flag.Int64("epoch", 1500, "ForEVeR epoch length in cycles")
		post     = flag.Int64("post", 500, "cycles of continued injection after the fault")
		drain    = flag.Int64("drain", 10000, "drain deadline in cycles")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		figs     = flag.String("fig", "all", "figures to print: comma list of 6,7,8,9,obs3,obs5 or 'all'")
		jsonPath = flag.String("json", "", "also export the aggregated results as JSON to this file")
		noSoA    = flag.Bool("no-soa", false, "use the reference sweep engine (full-range VC sweeps, no inert-router skip); results are byte-identical to the default structure-of-arrays engine")
		fullSim  = flag.Bool("fullsim", false, "run every fault on the full-simulation reference path (the whole mesh through window, drain and ForEVeR horizon; no fast path, reconvergence, divergence frontier or fast-forward); results are byte-identical to the default")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		progress = flag.Bool("progress", true, "print campaign progress to stderr")
		telAddr  = flag.String("telemetry", "", "serve live telemetry on this address (OpenMetrics at /metrics, pprof at /debug/pprof/)")
		traceOut = flag.String("trace", "", "stream one NDJSON record per completed fault run to this file")
		spanOut  = flag.String("trace-spans", "", "stream campaign/run/phase spans as NDJSON to this file")
		otlpOut  = flag.String("spans-otlp", "", "write the completed spans as an OTLP/JSON dump to this file (implies span retention)")
		spanN    = flag.Int("span-sample", 1, "record every Nth run's spans (campaign-level spans are always recorded)")
		frOut    = flag.String("flight-recorder", "", "record recent campaign events in a bounded ring, dumped to this file on anomalies and at campaign end")
		shardStr = flag.String("shard", "", "run only shard i/N of the campaign (0-based, e.g. 0/4) against a resumable checkpoint; requires -checkpoint")
		ckptPath = flag.String("checkpoint", "", "shard checkpoint file (NDJSON); an existing one is resumed, a finished one is a no-op")
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

	mesh, err := nocalert.ParseMesh(*meshSpec)
	if err != nil {
		log.Fatal(err)
	}
	cycles, err := parseInjectCycles(*inject)
	if err != nil {
		log.Fatal(err)
	}
	rc := nocalert.DefaultRouterConfig(mesh)
	rc.VCs = *vcs
	simCfg := nocalert.SimConfig{Router: rc, InjectionRate: *rate, Seed: *seed, DisableSoA: *noSoA}
	params := nocalert.FaultParamsFor(&rc)

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

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]

	faults := nocalert.SampleFaults(params, *nFaults, *seed, cycles[0])
	if len(cycles) > 1 {
		// Round-robin restamp, mirroring CampaignSpec.Universe: the set
		// of sampled locations stays independent of the cycle spread.
		for i := range faults {
			faults[i].Cycle = cycles[i%len(cycles)]
		}
	}
	fmt.Printf("fault population: %d single-bit locations (%d sites); injecting %d at cycle(s) %s\n",
		totalBits(params), len(params.EnumerateSites()), len(faults), *inject)

	// Telemetry: one registry feeds the progress line's ETA, the
	// /metrics endpoint and the live faults/sec gauge. It stays nil —
	// zero cost — when neither consumer is active.
	var reg *nocalert.MetricsRegistry
	if *progress || *telAddr != "" {
		reg = nocalert.NewMetricsRegistry()
	}
	if *telAddr != "" {
		addr, err := serveTelemetry(*telAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: http://%s/metrics (pprof /debug/pprof/)\n", addr)
	}

	// Span tracing and the anomaly flight recorder: both are
	// result-invisible (the traced report is byte-identical) and both
	// work in shard mode too, so they are wired before the mode split.
	var tracer *nocalert.Tracer
	var spanFile *os.File
	if *spanOut != "" || *otlpOut != "" {
		topts := nocalert.TracerOptions{SampleEvery: *spanN, Retain: *otlpOut != "", Service: "faultcampaign", Metrics: reg}
		if *spanOut != "" {
			spanFile, err = os.Create(*spanOut)
			if err != nil {
				log.Fatal(err)
			}
			topts.Writer = spanFile
		}
		tracer = nocalert.NewTracer(topts)
	}
	var flightRec *nocalert.FlightRecorder
	var frFile *os.File
	if *frOut != "" {
		frFile, err = os.Create(*frOut)
		if err != nil {
			log.Fatal(err)
		}
		flightRec = nocalert.NewFlightRecorder(0, frFile)
	}
	// closeObs finishes the observability sinks after the campaign (or
	// shard) completes: flush and close the span stream, render the OTLP
	// dump from the retained spans, and dump the flight-recorder ring one
	// final time so the file explains the run even without anomalies.
	closeObs := func() {
		if flightRec != nil {
			flightRec.Dump("campaign end")
			if err := flightRec.Err(); err != nil {
				log.Fatalf("flight-recorder: %v", err)
			}
			if err := frFile.Close(); err != nil {
				log.Fatal(err)
			}
		}
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

	if *shardStr != "" {
		if *ckptPath == "" {
			log.Fatal("-shard requires -checkpoint FILE")
		}
		if *traceOut != "" || *jsonPath != "" {
			log.Fatal("-shard is incompatible with -trace and -json; finalize the shards and use `faultcampaign merge`")
		}
		spec := nocalert.CampaignSpec{
			MeshW: mesh.W, MeshH: mesh.H, VCs: *vcs,
			InjectionRate: *rate,
			Seed:          *seed,
			InjectCycle:   cycles[0],
			PostInjectRun: *post,
			DrainDeadline: *drain,
			Epoch:         *epoch,
			HopLatency:    1,
			NumFaults:     *nFaults,
		}
		if len(cycles) > 1 {
			spec.InjectCycles = cycles
		}
		sro := nocalert.CampaignShardRunOptions{
			Workers:        *workers,
			DisableSoA:     *noSoA,
			FullSim:        *fullSim,
			VerifyResumed:  *verifyN,
			Tracer:         tracer,
			FlightRecorder: flightRec,
		}
		if err := runShardMode(ctx, spec, *shardStr, *ckptPath, sro, *progress, reg); err != nil {
			log.Fatal(err)
		}
		closeObs()
		return
	}
	if *ckptPath != "" {
		log.Fatal("-checkpoint requires -shard i/N (use -shard 0/1 to checkpoint a whole campaign)")
	}

	var onResult func(i int, res *nocalert.CampaignResult, wall time.Duration, exit nocalert.CampaignExitPath)
	var tw *nocalert.RunTraceWriter
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		tw = nocalert.NewRunTraceWriter(traceFile)
		onResult = func(i int, res *nocalert.CampaignResult, wall time.Duration, exit nocalert.CampaignExitPath) {
			rec := nocalert.CampaignRunRecord(i, res, wall, exit == nocalert.CampaignExitFastPath)
			if err := tw.Write(&rec); err != nil {
				log.Fatalf("trace: %v", err)
			}
		}
	}

	var report func(done, total int)
	if *progress {
		report = progressPrinter(os.Stderr, "campaign", reg)
		report(0, len(faults)) // the 0% line must appear before the first run completes
	}
	start := time.Now()
	// exec is how this invocation executes a campaign, whatever its faults:
	// the main one below, and the two behind the Observation 3 table.
	exec := nocalert.CampaignOptions{
		Sim:           simCfg,
		InjectCycle:   cycles[0],
		PostInjectRun: *post,
		DrainDeadline: *drain,
		Forever:       nocalert.ForeverOptions{Epoch: *epoch, HopLatency: 1},
		Workers:       *workers,
		FullSim:       *fullSim,
		Context:       ctx,
	}
	opts := exec
	opts.Faults = faults
	opts.Progress, opts.Metrics, opts.OnResult = report, reg, onResult
	opts.Tracer, opts.FlightRecorder = tracer, flightRec
	rep, err := nocalert.RunCampaign(opts)
	if err != nil {
		log.Fatal(err)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run trace: %d NDJSON records written to %s\n", tw.Records(), *traceOut)
	}
	closeObs()
	wall := time.Since(start)
	fmt.Printf("campaign: %d runs in %v; %d faults fired, %d caused network-correctness violations, %d fast-path exits, %d reconverged, %d forked (%d prefix cycles skipped, %d synthesized)\n\n",
		len(rep.Results), wall.Round(time.Millisecond), rep.FiredCount(), rep.MaliciousCount(), rep.FastPathHits, rep.ReconvergedHits,
		rep.ForkedRuns, rep.WarmstartCyclesSaved, rep.SynthesizedCycles)

	printFigures(rep, *figs)
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("JSON results written to %s\n\n", *jsonPath)
	}
	if all || want["obs3"] {
		obs3(exec, params)
	}

	// Observation 1: zero false negatives.
	fn := rep.FalseNegatives(nocalert.MechanismNoCAlert)
	fmt.Printf("Observation 1 — NoCAlert false negatives: %d (ForEVeR: %d)\n",
		fn, rep.FalseNegatives(nocalert.MechanismForEVeR))
	if fn != 0 {
		os.Exit(1)
	}
}

// writeFig7CDF prints the full detection-delay CDF curves as plottable
// (delay, cumulative%) series.
func writeFig7CDF(rep *nocalert.CampaignReport) {
	milestones := []int64{0, 1, 2, 4, 9, 16, 28, 64, 128, 256, 512, 1024, 1500, 3000, 6000, 12000}
	t := stats.NewTable("Figure 7 — CDF series (cumulative % of true positives detected within N cycles)",
		"Delay (cycles)", "NoCAlert", "ForEVeR")
	na := rep.LatencyCDF(nocalert.MechanismNoCAlert)
	fv := rep.LatencyCDF(nocalert.MechanismForEVeR)
	for _, m := range milestones {
		t.AddRow(m, 100*na.AtOrBelow(m), 100*fv.AtOrBelow(m))
	}
	t.Render(os.Stdout)
}

// obs3 contrasts transient and permanent faults on the same arbiter
// grant signals: a transient "grant to nobody" is a one-cycle NOP
// (benign), a permanent one starves the port into a protocol deadlock
// (paper Observation 3). exec carries the invocation's execution options
// (workers, -no-soa, -fullsim), so the permanent campaign — the one armed
// campaign the CLI can spell — runs on the reference paths when asked to.
func obs3(exec nocalert.CampaignOptions, params nocalert.FaultParams) {
	inject := exec.InjectCycle
	var tr, pm []nocalert.Fault
	for _, s := range params.EnumerateSites() {
		if s.Kind != nocalert.FaultSA1Gnt {
			continue
		}
		for b := 0; b < s.Width; b++ {
			tr = append(tr, nocalert.Fault{Site: s, Bit: b, Cycle: inject, Type: nocalert.TransientFault})
			pm = append(pm, nocalert.Fault{Site: s, Bit: b, Cycle: inject, Type: nocalert.PermanentFault})
		}
		if len(tr) >= 40 {
			break
		}
	}
	t := stats.NewTable("Observation 3 — invariance 5 under transient vs permanent faults (SA1 grant signals)",
		"Fault type", "Runs", "Detected%", "Malicious%", "Deadlocked%")
	for _, c := range []struct {
		name   string
		faults []nocalert.Fault
	}{{"transient", tr}, {"permanent", pm}} {
		exec.Faults = c.faults
		rep, err := nocalert.RunCampaign(exec)
		if err != nil {
			log.Fatal(err)
		}
		var det, mal, dead int
		for _, r := range rep.Results {
			if r.Detected {
				det++
			}
			if !r.Verdict.OK() {
				mal++
			}
			if r.Verdict.Unbounded {
				dead++
			}
		}
		n := int64(len(rep.Results))
		t.AddRow(c.name, n, stats.Pct(int64(det), n), stats.Pct(int64(mal), n), stats.Pct(int64(dead), n))
	}
	t.Render(os.Stdout)
	fmt.Println()
}

// serveTelemetry starts the live-profiling HTTP server: /metrics (the
// OpenMetrics/Prometheus exposition standard scrapers consume) plus the
// /debug/pprof/ pages the net/http/pprof import registered on the
// default mux. It returns the bound address ("localhost:0" picks a
// port).
func serveTelemetry(addr string, reg *nocalert.MetricsRegistry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", nocalert.OpenMetricsContentType)
		reg.WriteOpenMetrics(w)
	})
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			log.Printf("telemetry server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// parseInjectCycles parses the -inject flag: a single cycle or a comma
// list, each non-negative.
func parseInjectCycles(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("invalid -inject %q: cycles must be non-negative integers", s)
		}
		out = append(out, c)
	}
	return out, nil
}

func totalBits(p nocalert.FaultParams) int {
	n := 0
	for _, s := range p.EnumerateSites() {
		n += s.Width
	}
	return n
}
