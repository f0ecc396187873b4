package core_test

import (
	"fmt"

	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/topology"
)

// ExampleEngine shows the core loop: a healthy network keeps the
// checkers silent; a single-bit upset raises a same-cycle assertion.
func ExampleEngine() {
	mesh := topology.NewMesh(4, 4)
	cfg := sim.Config{
		Router:        router.Default(mesh),
		InjectionRate: 0.1,
		Seed:          7,
	}

	healthy := sim.MustNew(cfg, nil)
	eng := core.NewEngine(healthy.RouterConfig(), core.Options{})
	healthy.AttachMonitor(eng)
	healthy.Run(2000)
	fmt.Println("healthy assertions:", eng.Detected())

	f := fault.Fault{
		Site: fault.Site{
			Router: 5, Kind: fault.SA1Gnt,
			Port: int(topology.Local), VC: -1, Width: 4,
		},
		Bit: 0, Cycle: 500, Type: fault.Permanent,
	}
	faulty := sim.MustNew(cfg, fault.NewPlane(f))
	engF := core.NewEngine(faulty.RouterConfig(), core.Options{})
	faulty.AttachMonitor(engF)
	faulty.Run(2000)
	fmt.Println("faulty detected:", engF.Detected())
	fmt.Println("latency:", engF.FirstDetection()-f.Cycle)
	// Output:
	// healthy assertions: false
	// faulty detected: true
	// latency: 0
}
