// Command bench is the repository's benchmark: seven named workloads of
// the fault-campaign engine, five end-to-end metrics with regression
// bounds and per-layer attribution measured from outside the layers
// (timing their public functions and switching on the campaign's
// existing Tracer/Progress hooks).
//
//	go run ./bench -seed 3 -out run.json      every workload, every metric
//	go run ./bench -workload w4x4_window      one workload
//	go run ./bench -compare a.json b.json     two result files, verdict per metric
//
// The acceptance driver calls it as BENCHMARK.json's command says, with
// --workload --seed --seconds --trace appended: -seconds selects its
// shorter run (see manifest.go) and the last line of standard output is
// then the one JSON object the contract asks for. See README.md beside
// this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// tmpBase holds repetitions' service state; it lives inside the
// checkout (the harness writes nowhere else) and is listed in
// .gitignore.
const tmpBase = ".bench_tmp"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload and end standard output with the driver's one-line JSON result (default: every workload)")
		seed         = fs.Uint64("seed", 3, "workload seed: campaign.Spec.Seed, i.e. traffic and fault sampling")
		seconds      = fs.Float64("seconds", 0, "the acceptance driver's run: every fault count at a quarter, each workload's fixed grid of campaigns (seeds derived from -seed) x passes, a third or later pass skipped once the run would end nearer to this many seconds without it (0: full scale, 5 timed repetitions of the campaign -seed)")
		traceMode    = fs.Int("trace", -1, "0: timed repetitions only (end-to-end metrics); 1: add the traced repetition and report per-layer metrics; default: both")
		outPath      = fs.String("out", "", "write the full result (environment, samples, per-layer values) as JSON to this file")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments: medians, quartiles, n and a verdict per (metric, workload)")
		manifest     = fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric and workload tables, and exit")
		updatePins   = fs.Bool("update-expected", false, "run every workload once at each measured scale and rewrite bench/expected.json with the report digests, after an intended behaviour change")
		child        = fs.String("child", "", "internal: run one repetition described by this JSON and print its sample")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *child != "":
		return childMain(*child, stdout, stderr)
	case *manifest:
		b, err := manifestJSON()
		if err != nil {
			return fatal(err)
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fatal(errors.New("-compare needs two result files"))
		}
		differs, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if differs {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fatal(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds < 0 {
		return fatal(errors.New("-seconds must be >= 0"))
	}

	selected := workloads()
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return fatal(err)
		}
		if why := w.absent(); why != "" {
			// Refuse rather than record a serial run under a parallel name.
			return fatal(fmt.Errorf("workload %s cannot run here: %s", w.Name, why))
		}
		selected = []workload{w}
	}
	pins, err := loadExpected()
	if err != nil {
		return fatal(err)
	}
	defer os.Remove(tmpBase) // empty once every repetition has cleaned up
	if *updatePins {
		if err := pins.repin(tmpBase); err != nil {
			return fatal(err)
		}
		return 0
	}
	p := plan{Seed: *seed, Scale: 1, Seeds: 1, Passes: suiteReps, Seconds: *seconds, Traced: *traceMode != 0, TmpBase: tmpBase}
	if *seconds > 0 {
		p.Scale = contractScale
	}

	out := result{Env: recordEnv(), Seed: *seed, Scale: p.Scale, Seconds: *seconds}
	for _, w := range selected {
		if *seconds > 0 {
			p.Seeds, p.Passes = w.ContractSeeds, w.ContractPasses
			if *traceMode == 1 {
				// Only per-layer metrics are reported: the timed
				// repetitions just feed the derived ones, which are
				// about the campaign the traced repetition repeats.
				p.Seeds, p.Passes = 1, tracedRunPasses
			}
		}
		r, err := measureWorkload(w, p, execRep, pins)
		if err != nil {
			return fatal(err)
		}
		out.Workloads = append(out.Workloads, r)
		printWorkload(stdout, &r)
	}
	crossWorkload(out.Workloads)
	printCross(stdout, out.Workloads)

	if *outPath != "" {
		b, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			return fatal(err)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return fatal(err)
		}
	}

	failed := 0
	for i := range out.Workloads {
		failed += out.Workloads[i].Failed
	}
	if *workloadName != "" {
		if err := writeContractLine(stdout, &out.Workloads[0], *traceMode); err != nil {
			return fatal(err)
		}
	} else {
		fmt.Fprintf(stdout, "\n\"claim\": null\n")
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d runs failed verification\n", failed)
		return 1
	}
	return 0
}

// result is the full output of one invocation (-out). Claim is always
// null: the benchmark measures, a later change claims.
type result struct {
	Env       env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Scale     float64          `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

// execRep runs one repetition in a fresh process — this binary again —
// so every sample has its own heap and its own getrusage.
func execRep(cfg repConfig) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(&cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(arg))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(outBytes, &s); err != nil {
		return nil, fmt.Errorf("repetition output: %w", err)
	}
	return &s, nil
}

func childMain(arg string, stdout, stderr io.Writer) int {
	var cfg repConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintln(stderr, "bench: child config:", err)
		return 2
	}
	s, err := runRep(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// printWorkload prints every metric of one workload by name with its
// unit: end-to-end as median [q1, q3] over the timed repetitions and the
// run's one reported value (workloadResult.value), per-layer as the
// traced repetition's single value.
func printWorkload(w io.Writer, r *workloadResult) {
	if r.Absent != "" {
		fmt.Fprintf(w, "\n== %s: absent (%s)\n", r.Name, r.Absent)
		return
	}
	fmt.Fprintf(w, "\n== %s  N=%d  timed reps=%d  digest=%.12s\n", r.Name, r.N, r.Reps, r.Digest)
	for _, d := range endToEnd {
		if d.Name == "failed_share" {
			fmt.Fprintf(w, "  %-44s %14.6g %-6s (%d of %d runs)\n", d.Name, r.failedShare(), d.Unit, r.Failed, r.Attempted)
			continue
		}
		v := r.Samples[d.Name]
		if len(v) == 0 {
			continue
		}
		q1, q3 := quartiles(v)
		fmt.Fprintf(w, "  %-44s %14.6g %-6s [%.6g, %.6g] n=%d  reported %.6g\n", d.Name, median(v), d.Unit, q1, q3, len(v), r.value(d))
	}
	for _, d := range perLayer {
		if v, ok := r.Layer[d.Name]; ok && !d.SuiteOnly {
			fmt.Fprintf(w, "  %-44s %14.6g %-6s\n", d.Name, v, d.Unit)
		}
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", note)
	}
}

// printCross prints the metrics that needed two workloads.
func printCross(w io.Writer, results []workloadResult) {
	for i := range results {
		r := &results[i]
		for _, d := range perLayer {
			if v, ok := r.Layer[d.Name]; ok && d.SuiteOnly {
				fmt.Fprintf(w, "  %-44s %14.6g %-6s (%s)\n", d.Name, v, d.Unit, r.Name)
			}
		}
	}
}

// writeContractLine ends standard output with the driver's result: with
// trace 0 every end-to-end metric, with trace 1 every per-layer metric
// (both when no -trace was given).
func writeContractLine(w io.Writer, r *workloadResult, traceMode int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if traceMode != 1 {
		for _, d := range contractMetrics(endToEnd) {
			line.Metrics[d.Name] = value{r.value(d), d.Unit}
		}
	}
	if traceMode != 0 {
		for _, d := range contractMetrics(perLayer) {
			v, ok := r.Layer[d.Name]
			if !ok {
				return fmt.Errorf("workload %s did not produce %s", r.Name, d.Name)
			}
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
