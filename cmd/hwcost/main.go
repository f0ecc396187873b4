// Command hwcost evaluates the hardware cost of the NoCAlert checker
// fabric with the analytical gate-equivalent model that stands in for
// the paper's 65 nm synthesis flow (§5.5): Figure 10's area-overhead
// sweep over VC counts, the power overhead, and the critical-path
// impact.
//
// Usage:
//
//	hwcost
//	hwcost -vcs 2,4,6,8 -width 128 -depth 5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"nocalert/internal/hwmodel"
	"nocalert/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hwcost: ")
	var (
		vcsList = flag.String("vcs", "2,4,6,8", "comma-separated VC counts to sweep")
		width   = flag.Int("width", 128, "flit width in bits")
		depth   = flag.Int("depth", 5, "buffer depth in flits")
		ports   = flag.Int("ports", 5, "router radix")
	)
	flag.Parse()

	var vcs []int
	for _, s := range strings.Split(*vcsList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			log.Fatalf("invalid VC count %q", s)
		}
		vcs = append(vcs, v)
	}

	t := stats.NewTable("Figure 10 — area overhead vs VCs per port (gate equivalents)",
		"VCs", "Router GE", "NoCAlert GE", "NoCAlert %", "DMR-CL GE", "DMR-CL %")
	sumNA, sumDMR := 0.0, 0.0
	for _, v := range vcs {
		p := hwmodel.Params{Ports: *ports, VCs: v, BufDepth: *depth, FlitWidth: *width}
		if err := p.Validate(); err != nil {
			log.Fatal(err)
		}
		o := hwmodel.AreaOverhead(p)
		t.AddRow(v, fmt.Sprintf("%.0f", o.RouterGE), fmt.Sprintf("%.0f", o.CheckerGE),
			o.NoCAlertPct, fmt.Sprintf("%.0f", o.DMRGE), o.DMRPct)
		sumNA += o.NoCAlertPct
		sumDMR += o.DMRPct
	}
	t.Render(os.Stdout)
	fmt.Printf("average overhead: NoCAlert %.2f%%, DMR-CL %.2f%% (paper: ~3%% vs 5.41–31.32%%)\n\n",
		sumNA/float64(len(vcs)), sumDMR/float64(len(vcs)))

	pt := stats.NewTable("§5.5 — power and critical-path overhead",
		"VCs", "Power %", "Critical path %", "Checker area breakdown (GE)")
	for _, v := range vcs {
		p := hwmodel.Params{Ports: *ports, VCs: v, BufDepth: *depth, FlitWidth: *width}
		_, _, pw := hwmodel.Power(p)
		_, _, cp := hwmodel.CriticalPath(p)
		chk := hwmodel.Checkers(p)
		pt.AddRow(v, pw, cp,
			fmt.Sprintf("rc=%.0f arb=%.0f xbar=%.0f state=%.0f port=%.0f e2e=%.0f",
				chk.RCCheckers, chk.ArbiterCheckers, chk.XbarCheckers,
				chk.StateCheckers, chk.PortCheckers, chk.E2ECheckers))
	}
	pt.Render(os.Stdout)
	fmt.Println("\npaper reference: power 0.3–1.2% (avg 0.7%), critical path <=3% (avg ~1%)")
}
