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
// main command also prints obs3, which runs campaigns of its own.
const (
	reportFigureNames = "6,7,8,9,obs5,recovery,heatmap"
	mainFigureNames   = reportFigureNames + ",obs3"
)

// namedOnly lists the figures 'all' leaves out: the heatmap, and the
// Observation 3 table, which runs campaigns of its own. They print only
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

// printFigures renders the selected report figures (shared by the
// unsharded path and the merge and dispatch subcommands).
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

// writeReportJSON writes the aggregated report as JSON to path.
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
	fmt.Printf("JSON results written to %s\n\n", path)
}

// checkGolden compares the merged records against the committed
// fixture at path and exits non-zero on drift; mode prefixes the
// messages.
func checkGolden(mode string, merged *campaign.Merged, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("%s: golden fixture: %v", mode, err)
	}
	golden, err := campaign.ReadFixture(bytes.NewReader(data))
	if err != nil {
		log.Fatalf("%s: %s: %v", mode, path, err)
	}
	got := campaign.NewFixture(merged.Spec, merged.Records)
	if diffs := golden.Diff(got); len(diffs) != 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		log.Fatalf("%s: merged output diverges from golden fixture %s (%d diff(s))", mode, path, len(diffs))
	}
	fmt.Printf("golden check: merged records are bit-identical to %s\n", path)
}
