// Command nocsim runs a fault-free traffic simulation on the mesh NoC
// and reports latency/throughput, optionally with the NoCAlert engine
// attached to demonstrate its silence during healthy operation.
//
// Usage:
//
//	nocsim -mesh 8x8 -vcs 4 -rate 0.10 -pattern uniform -cycles 20000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nocalert/internal/core"
	"nocalert/internal/router"
	"nocalert/internal/routing"
	"nocalert/internal/sim"
	"nocalert/internal/stats"
	"nocalert/internal/topology"
	"nocalert/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")
	var (
		meshSpec = flag.String("mesh", "8x8", "mesh dimensions WxH")
		vcs      = flag.Int("vcs", 4, "virtual channels per port")
		depth    = flag.Int("depth", 5, "buffer depth in flits")
		rate     = flag.Float64("rate", 0.10, "injection rate (flits/node/cycle)")
		pattern  = flag.String("pattern", "uniform", "traffic pattern")
		alg      = flag.String("routing", "xy", "routing algorithm (xy, westfirst, adaptive)")
		cycles   = flag.Int64("cycles", 20000, "cycles to simulate before draining")
		seed     = flag.Uint64("seed", 1, "random seed")
		monitor  = flag.Bool("monitor", true, "attach the NoCAlert engine and report assertions")
		sweep    = flag.Bool("sweep", false, "sweep injection rates and print the load-latency curve instead")
	)
	flag.Parse()

	mesh, err := topology.ParseMesh(*meshSpec)
	if err != nil {
		log.Fatal(err)
	}
	pat, err := traffic.New(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	algo, err := routing.New(*alg)
	if err != nil {
		log.Fatal(err)
	}
	rc := router.Default(mesh)
	rc.VCs = *vcs
	rc.BufDepth = *depth
	rc.Alg = algo

	if *sweep {
		runSweep(mesh, rc, pat, *cycles, *seed)
		return
	}

	n, err := sim.New(sim.Config{
		Router:        rc,
		Pattern:       pat,
		InjectionRate: *rate,
		Seed:          *seed,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	var eng *core.Engine
	if *monitor {
		eng = core.NewEngine(n.RouterConfig(), core.Options{KeepViolations: true, MaxViolations: 10})
		n.AttachMonitor(eng)
	}

	n.Run(*cycles)
	drained := n.Drain(20 * *cycles)

	// Packet latency: tail-flit ejection cycle minus injection cycle.
	var latencies []int64
	for _, e := range n.Ejections() {
		if e.Flit.Kind.IsTail() {
			latencies = append(latencies, e.Cycle-e.Flit.InjectedAt)
		}
	}
	cdf := stats.NewCDF(latencies)

	t := stats.NewTable(fmt.Sprintf("nocsim — %s mesh, %d VCs, %s traffic at %.3f flits/node/cycle",
		*meshSpec, *vcs, *pattern, *rate),
		"Metric", "Value")
	t.AddRow("cycles simulated", n.Cycle())
	t.AddRow("packets offered", n.PacketsOffered())
	t.AddRow("flits injected", n.FlitsInjected())
	t.AddRow("flits ejected", n.FlitsEjected())
	t.AddRow("drained", drained)
	t.AddRow("throughput (flits/node/cycle)",
		fmt.Sprintf("%.4f", float64(n.FlitsEjected())/float64(n.Cycle())/float64(mesh.Nodes())))
	if cdf.N() > 0 {
		t.AddRow("avg packet latency (cycles)", fmt.Sprintf("%.1f", cdf.Mean()))
		t.AddRow("p50 packet latency", cdf.Percentile(0.50))
		t.AddRow("p99 packet latency", cdf.Percentile(0.99))
		t.AddRow("max packet latency", cdf.Max())
	}
	if eng != nil {
		t.AddRow("NoCAlert assertions (must be 0)", len(eng.Violations()))
	}
	t.Render(os.Stdout)
	if eng != nil && eng.Detected() {
		log.Fatalf("checker assertions in a fault-free run: %v", eng.Violations())
	}
}

// runSweep prints the classic load-latency curve: average packet
// latency as the offered load climbs toward saturation. The knee of
// the curve is the network's saturation throughput — the first sanity
// check of any NoC simulator.
func runSweep(mesh topology.Mesh, rc router.Config, pat traffic.Pattern, cycles int64, seed uint64) {
	t := stats.NewTable(
		fmt.Sprintf("load-latency sweep — %dx%d mesh, %d VCs, %s traffic",
			mesh.W, mesh.H, rc.VCs, pat.Name()),
		"offered (flits/node/cyc)", "delivered", "avg latency", "p99 latency", "drained")
	for _, rate := range []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45} {
		n := sim.MustNew(sim.Config{
			Router: rc, Pattern: pat, InjectionRate: rate, Seed: seed,
		}, nil)
		n.Run(cycles)
		drained := n.Drain(20 * cycles)
		var lat []int64
		for _, e := range n.Ejections() {
			if e.Flit.Kind.IsTail() {
				lat = append(lat, e.Cycle-e.Flit.InjectedAt)
			}
		}
		cdf := stats.NewCDF(lat)
		delivered := steadyDelivered(n, cycles)
		if cdf.N() == 0 {
			t.AddRow(rate, delivered, "-", "-", drained)
			continue
		}
		t.AddRow(rate, fmt.Sprintf("%.4f", delivered),
			fmt.Sprintf("%.1f", cdf.Mean()), cdf.Percentile(0.99), drained)
	}
	t.Render(os.Stdout)
}

// steadyDelivered is the accepted throughput, in flits/node/cycle, of a
// network that has injected for cycles: the flits it ejected in the
// steady-state window [cycles/4, cycles), over the window's length. The
// warm-up quarter is left out, and so is any drain after it, whose
// ejections would let a saturated network echo its offered load back.
func steadyDelivered(n *sim.Network, cycles int64) float64 {
	from, steady := cycles/4, 0
	for _, e := range n.Ejections() {
		if e.Cycle >= from && e.Cycle < cycles {
			steady++
		}
	}
	return float64(steady) / float64(cycles-from) / float64(n.Mesh().Nodes())
}
