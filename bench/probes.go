package main

import (
	"bytes"
	"io"
	"time"

	"nocalert/internal/campaign"
	"nocalert/internal/core"
	"nocalert/internal/fault"
	"nocalert/internal/forever"
	"nocalert/internal/golden"
	"nocalert/internal/obs"
	"nocalert/internal/router"
	"nocalert/internal/sim"
	"nocalert/internal/soa"
)

// The probes time the layers' public functions from outside, on a
// network built from the workload's own sim.Config and warmed to its
// own injection cycle. They run in the traced repetition only, after
// the measured section. Each takes the median of probeBatches batches: a
// sandbox stall then spoils one batch, not the number.

const (
	probeBatches    = 5
	probeStepCycles = 400 // per batch; 5 batches = the 2000 cycles a probe steps
	probeWarmMin    = 300
)

// batches runs fn probeBatches times and returns the results.
func batches(fn func() float64) []float64 {
	v := make([]float64, probeBatches)
	for i := range v {
		v[i] = fn()
	}
	return v
}

// nsPerCall times k back-to-back calls of fn and returns ns per call.
func nsPerCall(k int, fn func()) float64 {
	return median(batches(func() float64 {
		start := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		return float64(time.Since(start)) / float64(k)
	}))
}

// stepNs steps n for probeStepCycles cycles per batch and returns ns
// per router-cycle.
func stepNs(n *sim.Network, routers int) float64 {
	return nsPerCall(probeStepCycles, n.Step) / float64(routers)
}

// pairedStepNs steps bare and every monitored network through the same
// cycles, one short batch each in turn, so that host drift lands on all
// of them alike. It returns bare's ns per router-cycle and, per monitored
// network, the median over the batches of its difference to bare. The
// differences are a tenth of a step, so the batches are shorter and more
// than the other probes' (the same 2000 cycles in all).
func pairedStepNs(routers int, bare *sim.Network, monitored ...*sim.Network) (float64, []float64) {
	const pairs, cycles = 20, 100
	batch := func(n *sim.Network) float64 {
		start := time.Now()
		for i := 0; i < cycles; i++ {
			n.Step()
		}
		return float64(time.Since(start)) / float64(cycles*routers)
	}
	bareNs := make([]float64, pairs)
	diffs := make([][]float64, len(monitored))
	for b := range bareNs {
		bareNs[b] = batch(bare)
		for i, n := range monitored {
			diffs[i] = append(diffs[i], batch(n)-bareNs[b])
		}
	}
	extra := make([]float64, len(monitored))
	for i := range extra {
		extra[i] = median(diffs[i])
	}
	return median(bareNs), extra
}

// inertShare steps n until stop reports true (at most limit cycles) and
// returns the share of router-cycles whose router was Inert before the
// step. Counting perturbs timing, so it never shares a loop with a
// timed probe.
func inertShare(n *sim.Network, routers int, limit int64, stop func() bool) float64 {
	var inert, total float64
	for c := int64(0); c < limit && !stop(); c++ {
		for r := 0; r < routers; r++ {
			if n.Router(r).Inert() {
				inert++
			}
		}
		total += float64(routers)
		n.Step()
	}
	return ratio(inert, total)
}

// simProbes fills the sim, soa, router, core, forever, golden, fault and
// obs probe metrics.
func simProbes(out map[string]float64, spec campaign.Spec, opts campaign.Options) error {
	// Warm to the workload's last fork point (but past the empty-mesh
	// transient), so probes see the state its runs fork from.
	warm := int64(probeWarmMin)
	for _, f := range opts.Faults {
		warm = max(warm, f.Cycle)
	}
	post := opts.PostInjectRun

	base, err := sim.New(opts.Sim, nil)
	if err != nil {
		return err
	}
	base.Run(warm)
	routers := base.Mesh().Nodes()

	// Plain stepping, and monitor cost by subtraction: the bare network
	// and one with each monitor attached step the same cycles.
	withCore := base.Clone(nil)
	withCore.AttachMonitor(core.NewEngine(withCore.RouterConfig(), core.Options{Disabled: opts.CheckersDisabled}))
	withFv := base.Clone(nil)
	withFv.AttachMonitor(forever.NewMonitor(withFv.RouterConfig(), opts.Forever))
	bare, extra := pairedStepNs(routers, base.Clone(nil), withCore, withFv)
	out["sim.step_ns_per_router_cycle"] = bare
	out["core.sweep_ns_per_router_cycle"] = extra[0]
	out["forever.monitor_ns_per_router_cycle"] = extra[1]

	refCfg := opts.Sim
	refCfg.DisableSoA = true
	ref, err := sim.New(refCfg, nil)
	if err != nil {
		return err
	}
	ref.Run(warm)
	out["sim.step_ref_ns_per_router_cycle"] = stepNs(ref, routers)

	perm := opts.Faults[0]
	perm.Cycle, perm.Type = warm, fault.Permanent
	out["sim.step_liveplane_ns_per_router_cycle"] = stepNs(base.Clone(fault.NewPlane(perm)), routers)

	// The post-injection window: recording cost (a plain and a recording
	// run of the window, in turn), the golden transcript the frontier
	// replays, inert share.
	never := func() bool { return false }
	out["router.inert_share_window"] = inertShare(base.Clone(nil), routers, post, never)

	var cont *sim.Network
	var rec *sim.Recording
	out["sim.record_overhead_pct"] = median(batches(func() float64 {
		plain := base.Clone(nil)
		start := time.Now()
		plain.Run(post)
		plainNs := float64(time.Since(start))

		cont = base.Clone(nil)
		cont.StartRecording(int(post))
		start = time.Now()
		cont.Run(post)
		recNs := float64(time.Since(start))
		rec = cont.StopRecording()
		return 100 * ratio(recNs-plainNs, plainNs)
	}))
	wend := cont.CloneInto(nil, nil)
	out["sim.recording_bytes_per_cycle"] = float64(rec.ApproxFootprintBytes()) / float64(post)

	// Drain: injection stopped, stepped until quiet.
	out["sim.drain_step_ns_per_router_cycle"] = median(batches(func() float64 {
		drainer := cont.Clone(nil)
		drainer.StopInjection()
		start := time.Now()
		var cycles int64
		for ; cycles < opts.DrainDeadline && !drainer.Quiet(); cycles++ {
			drainer.Step()
		}
		return ratio(float64(time.Since(start)), float64(cycles*int64(routers)))
	}))
	counted := cont.Clone(nil)
	counted.StopInjection()
	out["router.inert_share_drain"] = inertShare(counted, routers, opts.DrainDeadline, counted.Quiet)

	// Frontier: one seeded router replaying the transcript, then the
	// window-end materialization of everything else.
	seed := opts.Faults[0]
	seed.Cycle = warm
	var matNs []float64
	out["sim.frontier_step_ns"] = median(batches(func() float64 {
		n := base.CloneInto(nil, fault.NewPlane(seed))
		fr := sim.NewFrontier(n, rec, []int{seed.Site.Router})
		start := time.Now()
		for c := int64(0); c < post; c++ {
			fr.Step()
		}
		ns := float64(time.Since(start)) / float64(post)
		start = time.Now()
		fr.MaterializeAll(wend)
		matNs = append(matNs, float64(time.Since(start)))
		return ns
	}))
	out["sim.materialize_all_us"] = median(matNs) / 1e3

	// Fork, hash, state copy.
	dst := base.CloneInto(nil, nil)
	out["sim.clone_into_us"] = nsPerCall(30, func() { base.CloneInto(dst, nil) }) / 1e3
	out["sim.network_kb"] = float64(base.ApproxFootprintBytes()) / 1024
	out["sim.fingerprint_us"] = nsPerCall(100, func() { base.Fingerprint() }) / 1e3
	layout := soa.Layout{R: routers, P: router.P, V: opts.Sim.Router.VCs}
	a, b := soa.NewState(layout), soa.NewState(layout)
	out["soa.state_copy_us"] = nsPerCall(200, func() { b.CopyFrom(a) }) / 1e3

	// Golden reference: timeline observation, log build, compare.
	obsNet := base.Clone(nil)
	ejStart := len(obsNet.Ejections())
	tl := golden.NewTimeline(int(post))
	var observeNs float64
	for c := int64(0); c < post; c++ {
		obsNet.Step()
		start := time.Now()
		tl.Observe(obsNet, obsNet.Ejections()[ejStart:])
		observeNs += float64(time.Since(start))
	}
	out["golden.timeline_observe_us"] = observeNs / float64(post) / 1e3
	obsNet.Drain(opts.DrainDeadline)
	ejs := obsNet.Ejections()
	goldenLog := golden.FromEjections(ejs, warm)
	var faulty *golden.Log
	out["golden.log_build_us"] = nsPerCall(20, func() { faulty = golden.FromEjectionsInto(faulty, ejs, warm) }) / 1e3
	out["golden.compare_us"] = nsPerCall(20, func() { golden.Compare(goldenLog, faulty, true) }) / 1e3

	out["fault.universe_ms"] = nsPerCall(1, func() { spec.Universe() }) / 1e6

	tr := obs.New(obs.Options{Writer: io.Discard})
	out["obs.span_ns"] = nsPerCall(2000, func() { tr.Start(nil, "phase", "probe").End() })
	return tr.Close()
}

// reportJSONProbe times Report.WriteJSON on the workload's own report.
func reportJSONProbe(out map[string]float64, rep *campaign.Report) {
	var buf bytes.Buffer
	out["campaign.report_json_ms"] = nsPerCall(3, func() {
		buf.Reset()
		_ = rep.WriteJSON(&buf) // bytes.Buffer writes cannot fail
	}) / 1e6
}
