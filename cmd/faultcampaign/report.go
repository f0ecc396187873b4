package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"nocalert/internal/campaign"
)

// reportFigureNames lists, in print order, the -fig names printFigures
// renders from an aggregated report: what merge and dispatch print. The
// main command also prints obs3, which runs a campaign of its own.
const (
	reportFigureNames = "6,7,8,9,obs5,recovery,heatmap"
	mainFigureNames   = reportFigureNames + ",obs3"
)

// namedOnly lists the figures 'all' leaves out: the heatmap, and the
// Observation 3 table, which runs a campaign of its own. They print only
// when named.
var namedOnly = []string{"heatmap", "obs3"}

// figHelp is the -fig usage of a mode that prints the named figures.
func figHelp(names string) string {
	var but []string
	for _, name := range namedOnly {
		if slices.Contains(strings.Split(names, ","), name) {
			but = append(but, name)
		}
	}
	return "figures to print: comma list of " + names + " or 'all' (every one but " + strings.Join(but, " and ") + ") or 'none'"
}

// figures is a parsed -fig selection.
type figures map[string]bool

// parseFigures parses a -fig comma list.
func parseFigures(s string) figures {
	f := figures{}
	for _, name := range strings.Split(s, ",") {
		f[strings.TrimSpace(strings.ToLower(name))] = true
	}
	return f
}

// has reports whether the selection prints the named figure: 'none'
// prints nothing, and 'all' prints every figure but namedOnly's.
func (f figures) has(name string) bool {
	if f["none"] {
		return false
	}
	return f[name] || f["all"] && !slices.Contains(namedOnly, name)
}

// obs3Alone reports whether the selection is the Observation 3 table and
// no figure of the report: the table runs a campaign of its own, so the
// main campaign has nothing to print.
func (f figures) obs3Alone() bool {
	return f.has("obs3") && !slices.ContainsFunc(strings.Split(reportFigureNames, ","), f.has)
}

// writeReport is the one way a report leaves the command, whichever mode
// folded it from the records (a whole-campaign run, merge, dispatch): the
// selected figures on stdout, the JSON report to jsonPath and the golden
// check at goldenPath when set, and last the Observation 1 line. The paper
// claims NoCAlert has no false negative, so one exits the command with
// status 1; mode prefixes the messages.
func writeReport(mode string, spec campaign.Spec, rep *campaign.Report, figs figures, jsonPath, goldenPath string) {
	printFigures(os.Stdout, rep, figs)
	if jsonPath != "" {
		writeReportJSON(rep, jsonPath)
	}
	if goldenPath != "" {
		checkGolden(mode, spec, rep, goldenPath)
	}
	fn := rep.FalseNegatives(campaign.NoCAlert)
	fmt.Printf("Observation 1 — NoCAlert false negatives: %d (ForEVeR: %d)\n",
		fn, rep.FalseNegatives(campaign.ForEVeR))
	if fn != 0 {
		log.Fatalf("%s: %d NoCAlert false negative(s): Observation 1 does not hold", mode, fn)
	}
}

// printFigures renders the selected report figures.
func printFigures(w io.Writer, rep *campaign.Report, figs figures) {
	for _, name := range strings.Split(reportFigureNames, ",") {
		if !figs.has(name) {
			continue
		}
		switch name {
		case "6":
			rep.WriteFig6(w)
		case "7":
			rep.WriteFig7(w)
			rep.WriteFig7CDF(w)
		case "8":
			rep.WriteFig8(w)
		case "9":
			rep.WriteFig9(w)
		case "obs5":
			rep.WriteObs5(w)
		case "recovery":
			rep.WriteRecoveryExposure(w)
		case "heatmap":
			rep.WriteHeatmaps(w)
		}
		fmt.Fprintln(w)
	}
}

// writeReportJSON writes the aggregated report as JSON to path and says
// so on stderr: stdout is a function of the records alone.
func writeReportJSON(rep *campaign.Report, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "JSON results written to %s\n", path)
}

// checkGolden compares the report's records against the committed
// fixture at path and exits non-zero on drift; mode prefixes the
// messages.
func checkGolden(mode string, spec campaign.Spec, rep *campaign.Report, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("%s: golden fixture: %v", mode, err)
	}
	golden, err := campaign.ReadFixture(bytes.NewReader(data))
	if err != nil {
		log.Fatalf("%s: %s: %v", mode, path, err)
	}
	got := campaign.NewFixture(spec, rep.Results)
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		log.Fatalf("%s: merged output diverges from golden fixture %s (%d diff(s))", mode, path, len(diffs))
	}
	fmt.Printf("golden check: merged records are bit-identical to %s\n", path)
}
