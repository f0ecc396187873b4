package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare. A is the baseline, B the candidate.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound
	verdictIdentical  = "identical"  // exact count, equal
	verdictDiffers    = "DIFFERS"    // exact count, not equal
)

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge gives the verdict for one bounded metric from both sides'
// samples. A difference only counts when the medians are further apart
// than the bound; when either side's own spread (interquartile distance
// over median) exceeds the bound the pair is unresolved, unless every
// sample of one side beats every sample of the other.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	beats := func(x, y float64) bool {
		if d.Better == "lower" {
			return x < y
		}
		return x > y
	}
	dominates := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	ma, mb := median(a), median(b)
	if max(spread(a), spread(b)) > d.Bound {
		switch {
		case dominates(b, a):
			return verdictBetter
		case dominates(a, b):
			return verdictWorse
		}
		return verdictUnresolved
	}
	if gap := ratio(mb-ma, ma); gap > d.Bound || gap < -d.Bound {
		if beats(mb, ma) {
			return verdictBetter
		}
		return verdictWorse
	}
	return verdictUnchanged
}

// compareFiles prints, per (metric, workload), both sides' medians,
// quartiles and n with a verdict. differs reports whether any failed
// share is non-zero, any exact count differs or any bounded metric is
// worse or unresolved — the two-set agreement criterion fails on it.
func compareFiles(w io.Writer, pathA, pathB string) (differs bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s  nproc %d  seed %d  scale %g  load %.2f\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NProc, a.Seed, a.Scale, a.Env.LoadAvg1)
	fmt.Fprintf(w, "B: %s  commit %s  %s  nproc %d  seed %d  scale %g  load %.2f\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NProc, b.Seed, b.Scale, b.Env.LoadAvg1)
	byName := make(map[string]*workloadResult)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		ra := &a.Workloads[i]
		rb := byName[ra.Name]
		if rb == nil || ra.Absent != "" || rb.Absent != "" {
			fmt.Fprintf(w, "\n== %s: not in both results\n", ra.Name)
			continue
		}
		fmt.Fprintf(w, "\n== %s  N=%d/%d\n", ra.Name, ra.N, rb.N)
		fmt.Fprintf(w, "  %-18s %-5s %10s %20s %2s %10s %20s %2s %8s  %s\n", "end to end", "unit", "A median", "[q1, q3]", "n", "B median", "[q1, q3]", "n", "B vs A", "verdict")
		for _, d := range endToEnd {
			if d.Name == "failed_share" {
				verdict := verdictIdentical
				if ra.Failed != 0 || rb.Failed != 0 {
					verdict, differs = verdictDiffers, true
				}
				fmt.Fprintf(w, "  %-18s %-5s %10.5g %20s %2s %10.5g %20s %2s %8s  %s\n", d.Name, d.Unit, ra.failedShare(), "", "", rb.failedShare(), "", "", "", verdict)
				continue
			}
			va, vb := ra.Samples[d.Name], rb.Samples[d.Name]
			verdict := judge(d, va, vb)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				differs = true
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(w, "  %-18s %-5s %10.5g %20s %2d %10.5g %20s %2d %+7.1f%%  %s (bound %g%%)\n", d.Name, d.Unit,
				median(va), fmt.Sprintf("[%.4g, %.4g]", qa1, qa3), len(va),
				median(vb), fmt.Sprintf("[%.4g, %.4g]", qb1, qb3), len(vb),
				100*ratio(median(vb)-median(va), median(va)), verdict, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-42s %-6s %12s %12s %8s  %s\n", "per layer", "unit", "A", "B", "B vs A", "exact counts")
		for _, d := range perLayer {
			va, oka := ra.Layer[d.Name]
			vb, okb := rb.Layer[d.Name]
			if !oka || !okb {
				continue
			}
			verdict := ""
			if d.Exact {
				verdict = verdictIdentical
				if va != vb {
					verdict, differs = verdictDiffers, true
				}
			}
			fmt.Fprintf(w, "  %-42s %-6s %12.6g %12.6g %+7.1f%%  %s\n", d.Name, d.Unit, va, vb, 100*ratio(vb-va, va), verdict)
		}
	}
	return differs, nil
}
